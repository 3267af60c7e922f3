package core

import (
	"bytes"
	"testing"
	"time"

	"mrapid/internal/costmodel"
	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
	"mrapid/internal/yarn"
)

// chaosRuntime is newRuntime with a caller-chosen placement seed, so the
// chaos suite can repeat its scenarios across several deterministic worlds.
func chaosRuntime(t testing.TB, seed int64) *mapreduce.Runtime {
	t.Helper()
	eng := sim.NewEngine()
	cluster, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: 4, Racks: 2})
	if err != nil {
		t.Fatal(err)
	}
	params := costmodel.Default()
	dfs := hdfs.New(eng, cluster, params.HDFSBlockBytes, params.Replication, seed)
	rm := yarn.NewRM(eng, cluster, params, NewDPlusScheduler(FullDPlus()))
	rm.Start()
	rt := mapreduce.NewRuntime(eng, cluster, dfs, rm, params)
	checkAtTeardown(t, rt)
	return rt
}

// runChaosDPlus runs a pooled D+ WordCount with an optional node fault and
// returns the result, the output bytes, and the framework. The RM keeps
// heartbeating after job completion so pool replenishment can finish.
func runChaosDPlus(t *testing.T, seed int64, faults []mapreduce.NodeFault) (*mapreduce.Result, []byte, *Framework) {
	t.Helper()
	rt := chaosRuntime(t, seed)
	f := startFramework(t, rt, 3)
	names, all := stageInput(t, rt, 4, 1<<20)
	if len(faults) > 0 {
		if err := rt.ScheduleNodeFaults(faults); err != nil {
			t.Fatal(err)
		}
	}
	var res *mapreduce.Result
	rt.Eng.After(0, func() {
		f.Submit(ModeDPlus, testWCSpec(names, "/out"), func(r *mapreduce.Result) { res = r })
	})
	rt.Eng.RunUntil(rt.Eng.Now().Add(600 * time.Second))
	rt.RM.Stop()
	if res == nil {
		t.Fatal("job did not finish")
	}
	if res.Err != nil {
		t.Fatalf("job failed: %v", res.Err)
	}
	verifyWC(t, rt, "/out", all)
	out, err := rt.DFS.Contents(mapreduce.PartFileName("/out", 0))
	if err != nil {
		t.Fatal(err)
	}
	return res, out, f
}

// A mid-job machine crash must never change what the job computes: across
// several placement seeds, the faulty run's output is byte-identical to the
// fault-free run's.
func TestChaosOutputByteIdenticalAcrossSeeds(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 3; seed++ {
		clean, cleanOut, _ := runChaosDPlus(t, seed, nil)
		mid := time.Duration(float64(clean.Elapsed())/2*float64(time.Second)) + time.Millisecond
		victim := "node-02"
		_, faultyOut, _ := runChaosDPlus(t, seed, []mapreduce.NodeFault{{Node: victim, At: mid}})
		if !bytes.Equal(cleanOut, faultyOut) {
			t.Fatalf("seed %d: output diverged after crashing %s at %s", seed, victim, mid)
		}
	}
}

// Killing a pooled AM's machine must trigger background replenishment: the
// pool detects the loss, relaunches a standby on a surviving node, and the
// submitted job still completes with correct output.
func TestPoolAMNodeCrashReplenished(t *testing.T) {
	t.Parallel()
	rt := chaosRuntime(t, 1)
	f := startFramework(t, rt, 3)
	victim := f.Pool.ams[0].Node
	names, all := stageInput(t, rt, 4, 1<<20)
	var res *mapreduce.Result
	rt.Eng.After(500*time.Millisecond, victim.Fail)
	rt.Eng.After(0, func() {
		f.Submit(ModeDPlus, testWCSpec(names, "/out"), func(r *mapreduce.Result) { res = r })
	})
	rt.Eng.RunUntil(rt.Eng.Now().Add(600 * time.Second))
	rt.RM.Stop()
	if res == nil || res.Err != nil {
		t.Fatalf("job did not survive the AM-node crash: %+v", res)
	}
	verifyWC(t, rt, "/out", all)
	if f.Pool.Lost < 1 || f.Pool.Replenished < 1 {
		t.Fatalf("pool lost/replenished = %d/%d, want >= 1 each", f.Pool.Lost, f.Pool.Replenished)
	}
	if f.Pool.AliveAMs() != 3 {
		t.Fatalf("pool holds %d AMs after replenishment, want 3", f.Pool.AliveAMs())
	}
	for _, am := range f.Pool.ams {
		if am.Node == victim {
			t.Fatal("replenished AM placed on the dead node")
		}
	}
}

// With every pooled AM gone and the replacement still launching, a D+
// submission must degrade gracefully to the stock submission path instead of
// deadlocking on an empty pool.
func TestPoolExhaustionFallsBackToStock(t *testing.T) {
	t.Parallel()
	rt := chaosRuntime(t, 1)
	rt.Trace = trace.New(rt.Eng, 0)
	f := startFramework(t, rt, 1)
	victim := f.Pool.ams[0].Node
	names, all := stageInput(t, rt, 4, 1<<20)
	rt.Eng.After(time.Second, victim.Fail)
	var res *mapreduce.Result
	var written int64
	submitted := false
	ticker := rt.Eng.Every(200*time.Millisecond, func() {
		if submitted || !f.Pool.Exhausted() {
			return
		}
		submitted = true
		written = rt.DFS.BytesWritten
		f.Submit(ModeDPlus, testWCSpec(names, "/out"), func(r *mapreduce.Result) {
			res = r
			written = rt.DFS.BytesWritten - written
		})
	})
	rt.Eng.RunUntil(rt.Eng.Now().Add(600 * time.Second))
	ticker.Stop()
	rt.RM.Stop()
	if !submitted {
		t.Fatal("pool never reported exhaustion after its only AM's node died")
	}
	if res == nil {
		t.Fatal("fallback submission deadlocked")
	}
	if res.Err != nil {
		t.Fatalf("fallback job failed: %v", res.Err)
	}
	if f.StockFallbacks != 1 {
		t.Fatalf("StockFallbacks = %d, want 1", f.StockFallbacks)
	}
	verifyWC(t, rt, "/out", all)
	if f.Pool.AliveAMs() != 1 {
		t.Fatalf("pool did not recover: %d AMs alive", f.Pool.AliveAMs())
	}
	assertStagedOnce(t, rt, res, written)
}

// assertStagedOnce checks that a job degraded by pool exhaustion is still one
// submission: one artifact upload, one root span, and HDFS grew by jar + conf
// + output, not by a second staging.
func assertStagedOnce(t *testing.T, rt *mapreduce.Runtime, res *mapreduce.Result, written int64) {
	t.Helper()
	uploads, roots := 0, 0
	for _, sp := range rt.Trace.Spans() {
		if sp.Name == "upload artifacts" {
			uploads++
		}
		if sp.Parent == 0 && sp.Component == "job" && sp.Name == res.Spec.Name {
			roots++
		}
	}
	if uploads != 1 || roots != 1 {
		t.Errorf("%d upload spans and %d root job spans, want 1 and 1", uploads, roots)
	}
	out, err := rt.DFS.Contents(mapreduce.PartFileName(res.Spec.OutputFile, 0))
	if err != nil {
		t.Fatal(err)
	}
	if want := rt.Params.JobJarBytes + rt.Params.JobConfBytes + int64(len(out)); written != want {
		t.Errorf("HDFS grew by %d B over the job, want jar + conf + output = %d B", written, want)
	}
}

// When one racing speculative mode's AM machine dies before the decision
// point, that mode drops out and the survivor wins with correct output.
func TestSpeculativeSurvivesAMNodeCrash(t *testing.T) {
	t.Parallel()
	rt := chaosRuntime(t, 1)
	f := startFramework(t, rt, 3)
	names, all := stageInput(t, rt, 8, 8<<20)
	var res *mapreduce.Result
	rt.Eng.After(0, func() {
		f.Submit(ModeSpeculative, testWCSpec(names, "/out"), func(r *mapreduce.Result) { res = r })
	})
	// Crash the first pooled AM to go busy — one of the two racing modes —
	// the moment it acquires, well before the estimator's decision point.
	crashed := false
	ticker := rt.Eng.Every(100*time.Millisecond, func() {
		if crashed {
			return
		}
		for _, am := range f.Pool.ams {
			if am.busy {
				am.Node.Fail()
				crashed = true
				return
			}
		}
	})
	rt.Eng.RunUntil(rt.Eng.Now().Add(900 * time.Second))
	ticker.Stop()
	rt.RM.Stop()
	if !crashed {
		t.Fatal("no pooled AM ever went busy for the speculative race")
	}
	if res == nil {
		t.Fatal("speculative job did not finish")
	}
	if res.Err != nil {
		t.Fatalf("speculative job failed: %v", res.Err)
	}
	verifyWC(t, rt, "/out", all)
	t.Logf("winner=%s", ModeKind(res.Mode))
}

// The verdict can kill D+ while the projected winner's AM already sits on a
// crashed node the RM has not expired yet. When that AM is finally reported
// lost, no racing mode is left: the winner must be relaunched on a fresh
// pooled AM, as a single-mode submission is, instead of failing the job.
func TestSpeculativeRelaunchesWinnerLostAfterVerdict(t *testing.T) {
	t.Parallel()
	race := func(victim int, crashAt sim.Time) (*mapreduce.Result, *Framework, *mapreduce.Runtime, []byte) {
		rt := chaosRuntime(t, 1)
		f := startFramework(t, rt, 3)
		names, all := stageInput(t, rt, 4, 2<<20)
		// The race takes the pool's first two idle AMs.
		node := f.Pool.idle[victim].Node
		var res *mapreduce.Result
		rt.Eng.After(0, func() {
			f.Submit(ModeSpeculative, testWCSpec(names, "/out"), func(r *mapreduce.Result) { res = r })
		})
		if crashAt > 0 {
			rt.Eng.After(crashAt.Sub(rt.Eng.Now()), node.Fail)
		}
		rt.Eng.RunUntil(rt.Eng.Now().Add(600 * time.Second))
		rt.RM.Stop()
		if res == nil {
			t.Fatal("speculative job did not finish")
		}
		return res, f, rt, all
	}
	clean, f, _, _ := race(0, 0)
	if clean.Err != nil || ModeKind(clean.Mode) != ModeUPlus || clean.Profile.Decision.At == 0 {
		t.Fatalf("clean race: winner=%s decidedAt=%s err=%v, want a U+ verdict", ModeKind(clean.Mode), clean.Profile.Decision.At, clean.Err)
	}
	if f.Pool.Dispatches != 2 {
		t.Fatalf("clean race dispatched %d AMs, want 2", f.Pool.Dispatches)
	}
	// Crash each racing AM's node half a second before the verdict — well
	// inside the RM's expiry interval, so the verdict still sees both modes.
	relaunches := 0
	for victim := 0; victim < 2; victim++ {
		res, f, rt, all := race(victim, clean.Profile.Decision.At.Add(-500*time.Millisecond))
		if res.Err != nil {
			t.Fatalf("victim AM %d: speculative job failed: %v", victim, res.Err)
		}
		verifyWC(t, rt, "/out", all)
		if f.Pool.Lost != 1 {
			t.Fatalf("victim AM %d: pool lost %d AMs, want 1", victim, f.Pool.Lost)
		}
		if f.Pool.Dispatches == 3 {
			relaunches++
			if ModeKind(res.Mode) != ModeUPlus || res.Profile.Decision.At == 0 {
				t.Fatalf("victim AM %d: relaunched run reports winner=%s decidedAt=%s", victim, ModeKind(res.Mode), res.Profile.Decision.At)
			}
		}
	}
	if relaunches != 1 {
		t.Fatalf("%d of the two crashes forced a relaunch, want exactly 1 (the U+ AM's)", relaunches)
	}
}

// runColdUPlus submits a U+ WordCount on a framework whose pool is empty, so
// the job degrades to the cold in-AM submission. arm, when non-nil, scripts a
// fault before the job starts.
func runColdUPlus(t *testing.T, queue string, arm func(rt *mapreduce.Runtime)) (*mapreduce.Result, *mapreduce.Runtime, []byte) {
	t.Helper()
	rt := chaosRuntime(t, 1)
	if queue != "" {
		if err := rt.RM.ConfigureQueues([]yarn.QueueConfig{
			{Name: yarn.DefaultQueue, Capacity: 0.5}, {Name: queue, Capacity: 0.5},
		}); err != nil {
			t.Fatal(err)
		}
	}
	f := startFramework(t, rt, 0)
	names, all := stageInput(t, rt, 4, 1<<20)
	spec := testWCSpec(names, "/out")
	spec.Queue = queue
	if arm != nil {
		arm(rt)
	}
	var res *mapreduce.Result
	rt.Eng.After(0, func() {
		f.Submit(ModeUPlus, spec, func(r *mapreduce.Result) { res = r; rt.RM.Stop() })
	})
	rt.Eng.RunUntil(horizon)
	if res == nil {
		t.Fatal("cold U+ job did not finish")
	}
	if f.StockFallbacks != 1 {
		t.Fatalf("StockFallbacks = %d, want 1 (the job was meant to take the cold path)", f.StockFallbacks)
	}
	return res, rt, all
}

// A tenant's U+ job that degrades to the cold path must still charge its AM
// container — the only container a U+ job has — to the tenant's queue, or it
// escapes the queue's capacity ceiling.
func TestColdUPlusChargesTenantQueue(t *testing.T) {
	t.Parallel()
	var peakTenant, peakDefault topology.Resource
	res, rt, all := runColdUPlus(t, "tenant-a", func(rt *mapreduce.Runtime) {
		rt.Eng.Every(50*time.Millisecond, func() {
			if u := rt.RM.QueueUsed("tenant-a"); u.VCores > peakTenant.VCores {
				peakTenant = u
			}
			if u := rt.RM.QueueUsed(yarn.DefaultQueue); u.VCores > peakDefault.VCores {
				peakDefault = u
			}
		})
	})
	if res.Err != nil {
		t.Fatalf("job failed: %v", res.Err)
	}
	verifyWC(t, rt, "/out", all)
	if peakTenant != rt.AMResource() {
		t.Errorf("tenant-a queue peaked at %+v, want the AM container %+v", peakTenant, rt.AMResource())
	}
	if (peakDefault != topology.Resource{}) {
		t.Errorf("default queue was charged %+v for a tenant-a job", peakDefault)
	}
}

// A cold U+ job whose AM machine dies mid-map must be relaunched like any
// other cold submission (up to MaxAMAttempts) and finish with correct output
// on the second attempt.
func TestChaosColdUPlusRelaunchesLostAM(t *testing.T) {
	t.Parallel()
	clean, _, _ := runColdUPlus(t, "", nil)
	if clean.Err != nil {
		t.Fatalf("clean run failed: %v", clean.Err)
	}
	p := clean.Profile
	victim, crashAt := p.Tasks[0].Node, p.FirstTaskAt+(p.MapsDoneAt-p.FirstTaskAt)/2
	res, rt, all := runColdUPlus(t, "", func(rt *mapreduce.Runtime) {
		for _, w := range rt.Cluster.Workers() {
			if w.Name == victim {
				rt.Eng.At(crashAt, w.Fail)
			}
		}
	})
	if res.Err != nil {
		t.Fatalf("job did not survive its AM node's crash: %v", res.Err)
	}
	verifyWC(t, rt, "/out", all)
	if res.Mode != string(ModeUPlus) {
		t.Errorf("mode = %q, want %q", res.Mode, ModeUPlus)
	}
	for _, tp := range res.Profile.Tasks {
		if tp.Node == victim && tp.Started >= crashAt {
			t.Fatalf("task ran on the dead node %s after the crash", victim)
		}
	}
	if res.Elapsed() <= clean.Elapsed() {
		t.Errorf("relaunched run (%.2fs) not slower than the clean run (%.2fs)", res.Elapsed(), clean.Elapsed())
	}
}
