package core

import (
	"fmt"
	"testing"

	"mrapid/internal/mapreduce"
	"mrapid/internal/topology"
)

// TestConcurrentSpeculativeJobs runs two speculative jobs at once: four AM
// racers (2 jobs × 2 modes) share the pool and cluster. Both must finish
// with correct output and the pool must drain back to idle.
func TestConcurrentSpeculativeJobs(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f := startFramework(t, rt, 4)
	namesA, allA := stageInput(t, rt, 3, 512<<10)

	// Second input set under a different prefix.
	var namesB []string
	var allB []byte
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("/inB/part-%d", i)
		data := []byte(fmt.Sprintf("gamma delta gamma %d\nepsilon zeta\n", i))
		rt.DFS.PutInstant(name, data, rt.Cluster.Workers()[i%4])
		namesB = append(namesB, name)
		allB = append(allB, data...)
	}

	specA := testWCSpec(namesA, "/outA")
	specA.Name, specA.JobKey = "jobA", "jobA"
	specB := testWCSpec(namesB, "/outB")
	specB.Name, specB.JobKey = "jobB", "jobB"

	var resA, resB *mapreduce.Result
	rt.Eng.After(0, func() {
		f.Submit(ModeSpeculative, specA, func(r *mapreduce.Result) { resA = r })
		f.Submit(ModeSpeculative, specB, func(r *mapreduce.Result) { resB = r })
	})
	rt.Eng.RunUntil(rt.Eng.Now().Add(1 << 41))
	rt.RM.Stop()
	if resA == nil || resB == nil {
		t.Fatalf("jobs unfinished: A=%v B=%v", resA != nil, resB != nil)
	}
	if resA.Err != nil || resB.Err != nil {
		t.Fatalf("errors: %v / %v", resA.Err, resB.Err)
	}
	verifyWC(t, rt, "/outA", allA)
	verifyWC(t, rt, "/outB", allB)
	if f.Pool.Idle() != 4 {
		t.Fatalf("pool idle = %d, want 4", f.Pool.Idle())
	}
	if f.History.Len() != 2 {
		t.Fatalf("history entries = %d", f.History.Len())
	}
}

// TestManySequentialJobsThroughPool stresses AM reuse: ten jobs back to
// back must all succeed through the same 2-AM pool with no leakage.
func TestManySequentialJobsThroughPool(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f := startFramework(t, rt, 2)
	names, all := stageInput(t, rt, 2, 128<<10)
	for j := 0; j < 10; j++ {
		spec := testWCSpec(names, fmt.Sprintf("/out%d", j))
		spec.Name = fmt.Sprintf("job-%d", j)
		var res *mapreduce.Result
		rt.Eng.After(0, func() {
			if j%2 == 0 {
				f.Submit(ModeDPlus, spec, func(r *mapreduce.Result) { res = r })
			} else {
				f.Submit(ModeUPlus, spec, func(r *mapreduce.Result) { res = r })
			}
		})
		rt.Eng.RunUntil(rt.Eng.Now().Add(1 << 39))
		if res == nil || res.Err != nil {
			t.Fatalf("job %d failed: %+v", j, res)
		}
		verifyWC(t, rt, fmt.Sprintf("/out%d", j), all)
	}
	rt.RM.Stop()
	if f.Pool.Idle() != 2 {
		t.Fatalf("pool leaked: idle = %d", f.Pool.Idle())
	}
	if f.Pool.Dispatches != 10 {
		t.Fatalf("dispatches = %d", f.Pool.Dispatches)
	}
	if used := rt.RM.TotalUsed(); used.VCores != 2 {
		t.Fatalf("resources leaked: %v (want just the 2 pooled AMs)", used)
	}
}

// TestSpeculativeJobsQueueOnSmallPool: with a 2-AM pool, a second
// speculative job must wait for AMs instead of deadlocking.
func TestSpeculativeJobsQueueOnSmallPool(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f := startFramework(t, rt, 2)
	names, _ := stageInput(t, rt, 2, 256<<10)
	var done int
	rt.Eng.After(0, func() {
		for j := 0; j < 3; j++ {
			spec := testWCSpec(names, fmt.Sprintf("/outq%d", j))
			spec.Name = fmt.Sprintf("qjob-%d", j)
			spec.JobKey = fmt.Sprintf("qjob-%d", j) // distinct: all speculate
			f.Submit(ModeSpeculative, spec, func(r *mapreduce.Result) {
				if r.Err != nil {
					t.Errorf("job failed: %v", r.Err)
				}
				done++
			})
		}
	})
	rt.Eng.RunUntil(rt.Eng.Now().Add(1 << 42))
	rt.RM.Stop()
	if done != 3 {
		t.Fatalf("completed %d of 3 queued speculative jobs", done)
	}
	if f.Pool.Idle() != 2 {
		t.Fatalf("pool idle = %d", f.Pool.Idle())
	}
}
