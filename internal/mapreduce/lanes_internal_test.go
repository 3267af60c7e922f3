package mapreduce

import (
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

// A reduce body starts a helper for each lane queue with nothing pending:
// a lone reduce gets its helper, and one beside a queue with a body pending
// gets none until that body settles.
func TestReduceHelpersOnlyBesideIdleQueues(t *testing.T) {
	t.Cleanup(UseHostLanes(2))
	h := newHostLanes(2)
	defer h.close()
	reduce, beside := &hostBody{task: nopTask{}}, &hostBody{task: nopTask{}}
	h.start(reduce)
	if n := h.helpers(); n != 1 {
		t.Errorf("a lone reduce may start %d helpers, want 1", n)
	}
	h.start(beside)
	if n := h.helpers(); n != 0 {
		t.Errorf("a reduce beside a busy queue may start %d helpers, want 0", n)
	}
	beside.join()
	if n := h.helpers(); n != 1 {
		t.Errorf("after the other queue's body settled a reduce may start %d helpers, want 1", n)
	}
	reduce.join()
}
