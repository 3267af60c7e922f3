package mapreduce

import (
	"runtime"
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
// A Runtime has one FIFO queue per lane, GOMAXPROCS of them, and none when
// GOMAXPROCS is 1: then every body runs inline at its join and no goroutine
// starts. A body goes to the queue with the fewest unsettled bodies when its
// timer starts, and a queue holds a Lane — the scratch its bodies build in —
// from its first unsettled body to the last one's settling. Both happen on
// the simulation goroutine in event order, so every Lane sees the same
// bodies in the same order on every run, whichever goroutine runs them, and
// a run allocates the same bytes every time.
//
// One executor at a time drains a queue, in order: a worker goroutine, or
// the simulation goroutine itself when a join finds no executor on the
// queue — a timer that fires before a worker picked its body up runs the
// body inline, on the body's own Lane. A simulation never waits behind
// another simulation's bodies, only behind its own.

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

// defaultLanes is the lane count of a new Runtime: GOMAXPROCS, or none
// when that is 1.
func defaultLanes() int {
	if n := laneHook.Load(); n > 0 {
		return int(n) - 1
	}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 0
}

// laneHook, when a test sets it, is one more than the lane count new
// Runtimes get in place of defaultLanes' own answer, and their queues go to
// the workers however many simulations are live.
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
		workers.list(q, len(h.queues))
	}
}

// spare reports whether h's work may go to other goroutines: unless there
// are as many live simulations as lanes — as in a process running one
// simulation per core, where another goroutine would only take turns with
// them — or a test forced the lanes. h.mu is held.
func (h *hostLanes) spare() bool {
	return !h.closed && (laneHook.Load() > 0 || int(liveRuntimes.Load()) < len(h.queues))
}

// reduce is a reduce task's body: partition part of outputs, cut into key
// ranges (see ranges) with helper goroutines taking ranges (see ranges.go
// and helpers). Without lanes it is one range, as ExecReduce runs it, but a
// reducer's panic fails the attempt instead of the process.
func (h *hostLanes) reduce(spec *JobSpec, part int, outputs []*MapOutput) (Reduced, *AttemptError) {
	return splitReduce(spec, part, outputs, h.ranges(1, outputs, part)).run(h.helpers())
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

// helpers is how many helper goroutines a reduce body may start: one per
// lane queue with nothing pending, while h may spare its work at all. The
// body's own queue holds the body, and a queue with bodies pending runs
// them on a core of its own, so a helper beside it would only take turns
// with them.
func (h *hostLanes) helpers() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.spare() {
		return 0
	}
	idle := 0
	for i := range h.queues {
		if h.queues[i].pending == 0 {
			idle++
		}
	}
	return idle
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

// workers are the process's lane workers: goroutines that drain listed
// queues, one at a time, until none is left and then exit, at most as many
// at once as the most lanes a Runtime listing a queue has. A join waits for
// the bodies it needs, and Close for every body its Runtime started, so
// nothing waits for a worker itself.
var workers workerPool

type workerPool struct {
	mu      sync.Mutex
	ready   []*hostQueue
	running int
}

// list puts q, which has bodies and no executor, up for a worker, starting
// one if fewer than lanes run. q's lanes.mu is held.
func (w *workerPool) list(q *hostQueue, lanes int) {
	q.listed = true
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ready = append(w.ready, q)
	if w.running < lanes {
		w.running++
		go w.work()
	}
}

// work drains listed queues until there are none.
func (w *workerPool) work() {
	for {
		w.mu.Lock()
		if len(w.ready) == 0 {
			w.running--
			w.mu.Unlock()
			return
		}
		q := w.ready[0]
		w.ready[0] = nil
		w.ready = w.ready[1:]
		w.mu.Unlock()
		h := q.lanes
		h.mu.Lock()
		q.listed = false
		if !q.busy {
			q.drain(nil)
		}
		h.mu.Unlock()
	}
}
