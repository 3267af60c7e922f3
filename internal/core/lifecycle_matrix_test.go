package core

import (
	"fmt"
	"testing"

	"mrapid/internal/mapreduce"
	"mrapid/internal/pin"
	"mrapid/internal/profiler"
	"mrapid/internal/shuffle"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

// The lifecycle matrix {AM shape} × {shuffle service} × {fault} is pinned in
// testdata/pinned.json under "lifecycle <shape>/<service>/<fault>". The values
// were captured on the three hand-copied AM state machines (UberAM, UPlusAM,
// DistributedAM) before they were folded into one lifecycle core
// (mapreduce.amCore); the core reproduces them bit for bit, except:
//
//   - inam-zero × service on: stock Uber used to ignore an attached shuffle
//     service and now reads back through it like every other mode, which
//     costs the service's cross-task merge before the reduce — ~37 ms here,
//     enough to tip the map-crash cell over a client poll tick.
//   - inam-full/*/node-crash, re-pinned when the one submission lifecycle
//     (mapreduce.Submission) replaced the pooled launcher: 1.262225990 →
//     6.972703432 s (off) and 1.305636023 → 7.016113465 s (on). One profile
//     now covers both attempts, so the cell is what the client observed, less
//     the staging upload.
//
// The distributed-pooled cells (D+ on a pool of 3) were captured on the
// per-path pooled launcher before the one submission lifecycle replaced it.
// Their node crash takes the reduce node, which does not host the serving
// pooled AM: no relaunch. Output bytes never move: every cell writes the same
// two-reduce word count.

// lifecycleShapes cover {cold, pooled} × {in-AM, distributed}: the in-AM
// executor with zero options (stock Uber, cold), the in-AM executor with
// FullUPlus (pooled), the distributed AM cold (stock Hadoop) and the
// distributed AM pooled (D+).
var lifecycleShapes = []struct {
	name   string
	inAM   bool
	sched  func() yarn.Scheduler
	submit func(rt *mapreduce.Runtime, spec *mapreduce.JobSpec, done func(*mapreduce.Result))
}{
	{
		name: "inam-zero", inAM: true,
		sched: func() yarn.Scheduler { return yarn.NewStockScheduler() },
		submit: func(rt *mapreduce.Runtime, spec *mapreduce.JobSpec, done func(*mapreduce.Result)) {
			mapreduce.Submit(rt, spec, mapreduce.ModeUber, done)
		},
	},
	{
		name: "inam-full", inAM: true,
		sched: func() yarn.Scheduler { return NewDPlusScheduler(FullDPlus()) },
		submit: func(rt *mapreduce.Runtime, spec *mapreduce.JobSpec, done func(*mapreduce.Result)) {
			f := NewFramework(rt, 3, FullUPlus())
			f.Start(func() { f.Submit(ModeUPlus, spec, done) })
		},
	},
	{
		name:  "distributed",
		sched: func() yarn.Scheduler { return yarn.NewStockScheduler() },
		submit: func(rt *mapreduce.Runtime, spec *mapreduce.JobSpec, done func(*mapreduce.Result)) {
			mapreduce.Submit(rt, spec, mapreduce.ModeDistributed, done)
		},
	},
	{
		name:  "distributed-pooled",
		sched: func() yarn.Scheduler { return NewDPlusScheduler(FullDPlus()) },
		submit: func(rt *mapreduce.Runtime, spec *mapreduce.JobSpec, done func(*mapreduce.Result)) {
			f := NewFramework(rt, 3, FullUPlus())
			f.Start(func() { f.Submit(ModeDPlus, spec, done) })
		},
	},
}

// runLifecycleCell runs the 4×1 MiB, two-reduce word count on a fresh
// cluster. arm, when non-nil, installs the cell's fault just before the job
// is submitted.
func runLifecycleCell(t *testing.T, shape int, service bool, arm func(rt *mapreduce.Runtime)) (*mapreduce.Result, pin.Record) {
	t.Helper()
	sh := lifecycleShapes[shape]
	rt := newRuntime(t, topology.A3, 4, sh.sched())
	if service {
		if _, err := shuffle.Attach(rt); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := stageInput(t, rt, 4, 1<<20)
	spec := testWCSpec(names, "/out")
	spec.NumReduces = 2
	if arm != nil {
		arm(rt)
	}
	var res *mapreduce.Result
	rt.Eng.After(0, func() {
		sh.submit(rt, spec, func(r *mapreduce.Result) { res = r; rt.RM.Stop() })
	})
	rt.Eng.RunUntil(horizon)
	return res, runRecord(t, rt, res, "/out")
}

// nodeCrashFor scripts the cell's machine crash from the clean run of the
// same configuration (the simulation is deterministic, so the faulty run is
// identical up to the crash): an in-AM job loses its AM node halfway through
// the map phase; a distributed job loses its reduce node halfway through the
// first reduce task.
func nodeCrashFor(t *testing.T, inAM bool, clean *mapreduce.Result) (node string, at sim.Time) {
	t.Helper()
	p := clean.Profile
	if inAM {
		return p.Tasks[0].Node, p.FirstTaskAt + (p.MapsDoneAt-p.FirstTaskAt)/2
	}
	for _, tp := range p.Tasks {
		if tp.Kind == profiler.ReduceTask {
			return tp.Node, tp.Started + (tp.Ended-tp.Started)/2
		}
	}
	t.Fatal("clean run recorded no reduce task")
	return "", 0
}

// failedAttempts counts the crashed task attempts a profile recorded.
func failedAttempts(p *profiler.JobProfile) int {
	n := 0
	for _, tp := range p.Tasks {
		if tp.Failed {
			n++
		}
	}
	return n
}

// TestLifecycleMatrixGolden is the refactoring net under the AM lifecycle
// core: every AM shape, with the shuffle service off and on, clean and under
// each recoverable fault (a crashed map attempt, a crashed reduce attempt,
// the machine under the reduce side), must finish at the pinned virtual
// instant with the pinned output bytes.
func TestLifecycleMatrixGolden(t *testing.T) {
	t.Parallel()
	for shape, sh := range lifecycleShapes {
		for _, service := range []bool{false, true} {
			svc := "off"
			if service {
				svc = "on"
			}
			clean, cleanRec := runLifecycleCell(t, shape, service, nil)
			victim, crashAt := nodeCrashFor(t, sh.inAM, clean)
			attemptCrash := func(kind string) func(*mapreduce.Runtime) {
				return func(rt *mapreduce.Runtime) {
					fi := new(mapreduce.FaultInjector)
					fi.Fail(kind, 1, 0, 0.5)
					rt.Faults = fi
				}
			}
			faults := []struct {
				name string
				arm  func(*mapreduce.Runtime)
			}{
				{"clean", nil},
				{"map-crash", attemptCrash("map")},
				{"reduce-crash", attemptCrash("reduce")},
				{"node-crash", func(rt *mapreduce.Runtime) {
					for _, w := range rt.Cluster.Workers() {
						if w.Name == victim {
							rt.Eng.At(crashAt, w.Fail)
						}
					}
				}},
			}
			for _, fault := range faults {
				key := fmt.Sprintf("%s/%s/%s", sh.name, svc, fault.name)
				t.Run(key, func(t *testing.T) {
					rec := cleanRec
					if fault.arm != nil {
						var res *mapreduce.Result
						res, rec = runLifecycleCell(t, shape, service, fault.arm)
						if n := failedAttempts(res.Profile); fault.name != "node-crash" && n != 1 {
							t.Fatalf("%d failed attempts recorded, want the 1 injected", n)
						}
					}
					pin.Check(t, "lifecycle "+key, rec)
				})
			}
		}
	}
}
