package mapreduce

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Host lanes (DESIGN.md §6, "Host lanes"). A map or reduce task's body —
// its ExecMapFile, or its reduce (hostLanes.reduce, which cuts a large
// partition into key ranges: ranges.go) — is a pure function of what the
// task holds when its core is acquired, and nothing reads the result before
// the task's compute timer fires. So the body starts on a host lane when the
// timer starts and is joined when the timer fires, on the simulation
// goroutine, at the virtual instant an inline run would have had it: no
// virtual time, output byte or trace can move.
//
// Every Runtime has laneCount FIFO queues, whatever the machine. A body goes
// to the queue with the fewest unsettled bodies when its timer starts, and a
// queue holds a Lane — the scratch its bodies build in — from its first
// unsettled body to the last one's settling. Both happen on the simulation
// goroutine in event order, so every Lane sees the same bodies in the same
// order on every run and every machine, whichever goroutine runs them, and
// a run allocates the same bytes every time.
//
// One executor at a time drains a queue, in order: a pool worker, or the
// simulation goroutine itself when a join finds no executor on the queue —
// a timer that fires before a worker picked its body up runs the body
// inline, on the body's own Lane. A simulation never waits behind another
// simulation's bodies, only behind its own. GOMAXPROCS decides only whether
// a queue goes to the pool (workers) at all: at 1 it never does.

// A Lane is the scratch of one host lane: a FreeList keeps one stack per
// Lane, and a body running on a Lane is the only user of those stacks until
// it ends. The nil *Lane names the stacks shared by work off the lanes: an
// inline body, a shuffle-service merge, a direct ExecMapFile.
type Lane struct{ slot int }

// index is l's stack in every FreeList: 0 for the shared one.
func (l *Lane) index() int {
	if l == nil {
		return 0
	}
	return l.slot
}

// idleLanes holds the Lanes no queue holds; laneSlots numbers new ones.
var (
	idleLanes FreeList[Lane]
	laneSlots atomic.Int32
)

// takeLane hands out the Lane released last, or a new one.
func takeLane() *Lane {
	if l := idleLanes.Get(nil); l != nil {
		return l
	}
	return &Lane{slot: int(laneSlots.Add(1))}
}

// hostLanes is a Runtime's lane queues. mu guards every field of its
// queues and the state of their bodies; a body's refs and settled belong to
// the simulation goroutine.
type hostLanes struct {
	mu     sync.Mutex
	ended  sync.Cond // a body ended, or an executor left its queue
	queues []hostQueue
	closed bool // Close ran: later bodies run inline
}

// hostQueue is one lane's FIFO of bodies.
type hostQueue struct {
	lanes   *hostLanes
	lane    *Lane       // held while pending > 0
	bodies  []*hostBody // from head on: not yet taken by an executor
	head    int
	pending int  // bodies assigned here and not yet settled
	busy    bool // an executor is draining the queue
	listed  bool // waiting in workers.ready
}

// newHostLanes returns n lane queues, or nil for none.
func newHostLanes(n int) *hostLanes {
	if n <= 0 {
		return nil
	}
	h := &hostLanes{queues: make([]hostQueue, n)}
	h.ended.L = &h.mu
	for i := range h.queues {
		h.queues[i].lanes = h
	}
	liveRuntimes.Add(1)
	return h
}

// liveRuntimes counts the Runtimes with lanes that are not closed: the
// simulations the process is setting up, running or checking, each on a
// goroutine of its own. A Runtime nobody closes counts for the rest of the
// process.
var liveRuntimes atomic.Int32

// laneCount is the lane count of every Runtime. It is fixed, not the
// machine's core count, because the lanes' scratch sets and a split body's
// key ranges follow it, and so do the bytes a run allocates.
const laneCount = 2

// defaultLanes is the lane count of a new Runtime: laneCount, unless a test
// forced another.
func defaultLanes() int {
	if n := laneHook.Load(); n > 0 {
		return int(n) - 1
	}
	return laneCount
}

// laneHook, when a test sets it, is one more than the lane count new
// Runtimes get in place of laneCount, and their work goes to the pool
// however many simulations are live and whatever GOMAXPROCS is.
var laneHook atomic.Int32

// A hostBody is one task's body in flight. It lives in the task attempt's
// own state, so starting one allocates nothing.
type hostBody struct {
	task    interface{ execute(*Lane) }
	queue   *hostQueue // nil: the body runs inline at its first join
	state   bodyState
	refs    int  // attempts that will join or drop it
	settled bool // joined or dropped for good: it needs its Lane no more
}

type bodyState uint8

const (
	bodyQueued bodyState = iota
	bodyRunning
	bodyDone
	bodyCancelled
)

// start begins b, whose task is set, for one attempt: on the queue with
// the fewest unsettled bodies, or at its join when there are no lanes.
func (h *hostLanes) start(b *hostBody) {
	b.refs = 1
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	q := &h.queues[0]
	for i := range h.queues {
		if h.queues[i].pending < q.pending {
			q = &h.queues[i]
		}
	}
	if q.pending == 0 {
		q.lane = takeLane()
	}
	q.pending++
	b.queue = q
	q.bodies = append(q.bodies, b)
	h.offer(q)
}

// offer puts q, which has bodies queued, up for a worker unless an executor
// has it or h may not use other goroutines. The simulation then runs the
// queue itself at its join. Which goroutine runs a body never changes the
// Lane it builds in. h.mu is held.
func (h *hostLanes) offer(q *hostQueue) {
	if !q.busy && !q.listed && h.spare() {
		q.listed = true
		workers.list(q, 1, len(h.queues))
	}
}

// spare reports whether h's work may go to the pool: while fewer
// simulations are live than the process has cores (never at GOMAXPROCS 1),
// or when a test forced the lanes. h.mu is held.
func (h *hostLanes) spare() bool {
	return !h.closed && (laneHook.Load() > 0 || int(liveRuntimes.Load()) < runtime.GOMAXPROCS(0))
}

// pieceHelpers is how many pool workers a body cut into pieces may list
// its claims for: one per lane but its caller's, while h may spare its
// work at all, else none.
func (h *hostLanes) pieceHelpers() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.spare() {
		return 0
	}
	return len(h.queues) - 1
}

// reduce is a reduce task's body: partition part of outputs, cut into key
// ranges (see ranges) that pool workers may help with (see ranges.go).
// Without lanes it is one range, as ExecReduce runs it, but a reducer's
// panic fails the attempt instead of the process.
func (h *hostLanes) reduce(spec *JobSpec, part int, outputs []*MapOutput) (Reduced, *AttemptError) {
	return splitReduce(spec, part, outputs, h.ranges(1, outputs, part)).run(h.pieceHelpers())
}

// ranges is how many key ranges a body over parts partitions cuts partition
// part of outputs into: one per lane when it has fewer partitions than h
// has lanes and the partition indexes at least splitPairs pairs, else one.
// A reduce body is a body over one partition.
func (h *hostLanes) ranges(parts int, outputs []*MapOutput, part int) int {
	if h == nil || parts >= len(h.queues) {
		return 1
	}
	pairs := 0
	for _, mo := range outputs {
		pairs += len(mo.Partitions[part])
	}
	if pairs < splitPairs {
		return 1
	}
	return len(h.queues)
}

// join waits until b has run — running it, after whatever its queue holds
// before it, when no executor is draining the queue — and gives up one
// attempt's claim on it. Only the simulation goroutine joins.
func (b *hostBody) join() {
	q := b.queue
	if q == nil {
		if b.state != bodyDone {
			b.state = bodyRunning
			b.task.execute(nil)
			b.state = bodyDone
		}
		b.refs--
		b.settled = true
		return
	}
	h := q.lanes
	h.mu.Lock()
	defer h.mu.Unlock()
	for b.state != bodyDone {
		if q.busy {
			h.ended.Wait()
			continue
		}
		q.drain(b)
		if q.head < len(q.bodies) {
			h.offer(q)
		}
	}
	b.refs--
	b.settle()
}

// drop gives up one attempt's claim on b without reading its result. The
// last claim cancels b if it has not started and waits for it if it has, so
// no body outlives the attempts that wanted it.
func (b *hostBody) drop() {
	if b.refs--; b.refs > 0 {
		return
	}
	q := b.queue
	if q == nil {
		if b.state == bodyQueued {
			b.state = bodyCancelled
		}
		b.settled = true
		return
	}
	h := q.lanes
	h.mu.Lock()
	defer h.mu.Unlock()
	if b.state == bodyQueued {
		b.state = bodyCancelled
	}
	for b.state == bodyRunning {
		h.ended.Wait()
	}
	b.settle()
}

// settle records that b needs its queue's Lane no more; the queue gives
// the Lane back once nothing assigned to it is unsettled. h.mu is held.
func (b *hostBody) settle() {
	if b.settled {
		return
	}
	b.settled = true
	q := b.queue
	if q.lanes.closed {
		return
	}
	if q.pending--; q.pending == 0 {
		idleLanes.Put(nil, q.lane)
		q.lane = nil
	}
}

// drain runs q's bodies in order, on its Lane, until the queue is empty or
// until stop (when non-nil) has run. h.mu is held on entry and return and
// released around each body.
func (q *hostQueue) drain(stop *hostBody) {
	h := q.lanes
	q.busy = true
	for stop == nil || stop.state == bodyQueued {
		b := q.next()
		if b == nil {
			break
		}
		b.state = bodyRunning
		lane := q.lane
		h.mu.Unlock()
		b.task.execute(lane)
		h.mu.Lock()
		b.state = bodyDone
		h.ended.Broadcast()
	}
	q.busy = false
	h.ended.Broadcast()
}

// next takes q's first queued body, or returns nil when none is left.
func (q *hostQueue) next() *hostBody {
	for q.head < len(q.bodies) {
		b := q.bodies[q.head]
		q.bodies[q.head] = nil
		q.head++
		if b.state == bodyQueued {
			return b
		}
	}
	q.bodies, q.head = q.bodies[:0], 0
	return nil
}

// close takes every body still queued off h's queues — one whose attempt
// joins it later runs inline — and waits for the running ones, then gives
// back the Lanes: no body runs on a lane after it, and bodies started after
// it run inline at their joins.
func (h *hostLanes) close() {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	liveRuntimes.Add(-1)
	for i := range h.queues {
		q := &h.queues[i]
		for _, b := range q.bodies[q.head:] {
			if b.state == bodyQueued {
				b.queue = nil // it runs inline if its attempt ever joins
			}
		}
		clear(q.bodies)
		q.bodies, q.head = q.bodies[:0], 0
		for q.busy {
			h.ended.Wait()
		}
		if q.lane != nil {
			idleLanes.Put(nil, q.lane)
			q.lane, q.pending = nil, 0
		}
	}
}

// workers is the process's worker pool: goroutines that serve listings in
// order until none is left and then exit, at most one per lane of the
// Runtime listing work — the only cap on goroutines running host work.
var workers workerPool

type workerPool struct {
	mu      sync.Mutex
	ready   []listing
	running int
}

// A listing is a lane queue to drain (hostQueue) or one helper's turn at a
// body's pieces (claims); it never touches a queue's bodies or pending.
type listing interface{ serve() }

// list puts x up for n workers, starting workers while fewer than lanes
// run.
func (w *workerPool) list(x listing, n, lanes int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for range n {
		w.ready = append(w.ready, x)
		if w.running < lanes {
			w.running++
			go w.work()
		}
	}
}

// withdraw takes back x's listings no worker has taken and returns how
// many there were.
func (w *workerPool) withdraw(x listing) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.ready)
	w.ready = slices.DeleteFunc(w.ready, func(y listing) bool { return y == x })
	return n - len(w.ready)
}

// work serves listings until there are none.
func (w *workerPool) work() {
	for {
		w.mu.Lock()
		if len(w.ready) == 0 {
			w.running--
			w.mu.Unlock()
			return
		}
		x := w.ready[0]
		w.ready = slices.Delete(w.ready, 0, 1) // keeps the array: listing allocates nothing once it is grown
		w.mu.Unlock()
		x.serve()
	}
}

// serve drains q unless an executor already has it.
func (q *hostQueue) serve() {
	h := q.lanes
	h.mu.Lock()
	defer h.mu.Unlock()
	q.listed = false
	if !q.busy {
		q.drain(nil)
	}
}
