package mapreduce

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mrapid/internal/profiler"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

// Close in the middle of a run takes the queued bodies off the lanes and
// waits for the running ones: afterwards no queue has an executor or holds
// a Lane, and the run still completes, each body that was taken off
// running inline at its join, with the outputs an unclosed run commits.
func TestCloseMidRunTakesBodiesOffTheLanes(t *testing.T) {
	t.Cleanup(UseHostLanes(2))
	var mid time.Duration // inside the first map's compute timer
	run := func(closeAt time.Duration) []string {
		rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
		names, _ := stageWordCountInput(t, rt, 6, 256<<10)
		splits, err := rt.DFS.Splits(names)
		if err != nil {
			t.Fatal(err)
		}
		spec := wcSpec(names, "/out")
		outs := make([]string, len(splits))
		for i, s := range splits {
			rt.RunMapTask(spec, s, rt.Cluster.Workers()[i%4], TaskOptions{}, func(mo *MapOutput, tp *profiler.TaskProfile, err error) {
				if err != nil {
					t.Fatal(err)
				}
				outs[i] = Snapshot(mo)
				if i == 0 {
					mid = tp.ReadDur + tp.ComputeDur/4
				}
			})
		}
		if closeAt > 0 {
			rt.Eng.RunUntil(rt.Eng.Now().Add(closeAt))
			h := rt.lanes
			h.mu.Lock()
			pending := 0
			for i := range h.queues {
				pending += h.queues[i].pending
			}
			h.mu.Unlock()
			if pending == 0 {
				t.Fatalf("no body is in flight %v in; Close would not be mid-run", closeAt)
			}
			rt.Close()
			h.mu.Lock()
			for i := range h.queues {
				if q := &h.queues[i]; q.busy || q.lane != nil || len(q.bodies) != 0 {
					t.Errorf("queue %d after Close: busy %t, lane %v, %d bodies", i, q.busy, q.lane, len(q.bodies))
				}
			}
			h.mu.Unlock()
		}
		rt.Eng.RunUntil(rt.Eng.Now().Add(time.Minute))
		return outs
	}
	want := run(0)
	got := run(mid)
	for i := range want {
		if want[i] == "" || got[i] != want[i] {
			t.Fatalf("map %d after a mid-run Close differs from an unclosed run's", i)
		}
	}
}

// nopTask is a body that does nothing.
type nopTask struct{}

func (nopTask) execute(*Lane) {}

// pairedPieces is a body's two pieces that each wait, up to ten seconds,
// for the other to start: both start only on two executors at once.
type pairedPieces struct {
	started [2]chan struct{}
	paired  [2]bool
	before  func(i int) // runs as piece i starts, before it waits
}

func newPairedPieces() *pairedPieces {
	return &pairedPieces{started: [2]chan struct{}{make(chan struct{}), make(chan struct{})}}
}

func (p *pairedPieces) piece(i int) {
	if p.before != nil {
		p.before(i)
	}
	close(p.started[i])
	select {
	case <-p.started[1-i]:
		p.paired[i] = true
	case <-time.After(10 * time.Second):
	}
}

// splitBody is a task body cut into two pieces, run as a split reduce
// runs them.
type splitBody struct {
	h      *hostLanes
	pieces *pairedPieces
}

func (b splitBody) execute(*Lane) {
	var c claims
	c.run(b.pieces, 2, b.h.pieceHelpers())
}

// blockingTask is a body that runs until release is closed.
type blockingTask struct{ started, release chan struct{} }

func (b blockingTask) execute(*Lane) {
	close(b.started)
	<-b.release
}

// A body cut into pieces lists its claims on the worker pool beside the
// lane queues, and the pool's one cap — a worker per lane — decides whether
// a worker helps: a lone split body gets its second executor, and one
// listed while the other lane's worker is busy gets none until that worker
// is free, then gets it.
func TestPiecesShareThePoolWithTheQueues(t *testing.T) {
	t.Cleanup(UseHostLanes(2))
	h := newHostLanes(2)
	defer h.close()

	lone := splitBody{h, newPairedPieces()}
	b := &hostBody{task: lone}
	h.start(b)
	b.join()
	if !lone.pieces.paired[0] || !lone.pieces.paired[1] {
		t.Errorf("a lone split body ran its pieces on one executor (paired %v)", lone.pieces.paired)
	}

	blocker := blockingTask{make(chan struct{}), make(chan struct{})}
	busy := &hostBody{task: blocker}
	h.start(busy)
	<-blocker.started
	var released atomic.Bool
	beside := splitBody{h, newPairedPieces()}
	beside.pieces.before = func(i int) {
		if i == 1 && !released.Load() {
			t.Error("piece 1 started while the other lane's worker was busy")
		}
	}
	split := &hostBody{task: beside}
	h.start(split)
	<-beside.pieces.started[0]
	time.Sleep(50 * time.Millisecond)
	released.Store(true)
	close(blocker.release)
	busy.join()
	split.join()
	if !beside.pieces.paired[0] || !beside.pieces.paired[1] {
		t.Errorf("the split body beside a busy worker never got its second executor (paired %v)", beside.pieces.paired)
	}
}

// At GOMAXPROCS 1 a Runtime still has laneCount queues and cuts a large
// reduce into laneCount ranges, so it builds and allocates what it does on
// any other machine, but no work goes to the pool: every body and piece
// runs on the goroutine that joins it.
func TestOneCoreKeepsTheLanesAndStartsNoWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	was := laneHook.Swap(0) // forcelanes would force the pool on
	defer laneHook.Store(was)
	rt := &Runtime{lanes: newHostLanes(defaultLanes())}
	defer rt.Close()
	h := rt.lanes
	if n := len(h.queues); n != laneCount {
		t.Fatalf("a Runtime at GOMAXPROCS 1 has %d queues, want %d", n, laneCount)
	}
	spec := teraBenchSpec()
	rng := rand.New(rand.NewSource(7))
	var outs []*MapOutput
	for range 4 {
		outs = append(outs, ExecMapFile(spec, "", teraRows(rng, splitPairs/4)))
	}
	if n := h.ranges(1, outs, 0); n != laneCount {
		t.Fatalf("a reduce over %d pairs is cut into %d ranges, want %d", splitPairs, n, laneCount)
	}
	want := ExecReduce(spec, 0, outs)
	for range 2 {
		r := &reduceTask{h: h, spec: spec, outs: outs}
		b := &hostBody{task: r}
		h.start(b)
		h.mu.Lock()
		listed := b.queue.listed
		h.mu.Unlock()
		workers.mu.Lock()
		ready := len(workers.ready)
		workers.mu.Unlock()
		if listed || ready != 0 || h.pieceHelpers() != 0 {
			t.Fatalf("a body went to the pool (queue listed %t, %d listings, %d piece helpers)", listed, ready, h.pieceHelpers())
		}
		b.join()
		if r.died != nil || !bytes.Equal(r.out.Encoded, want.Encoded) {
			t.Fatalf("the reduce at GOMAXPROCS 1 differs from the one-range reduce (died: %v)", r.died)
		}
	}
}

// reduceTask is a reduce body over partition 0 of outs.
type reduceTask struct {
	h    *hostLanes
	spec *JobSpec
	outs []*MapOutput
	out  Reduced
	died *AttemptError
}

func (r *reduceTask) execute(*Lane) { r.out, r.died = r.h.reduce(r.spec, 0, r.outs) }
