package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
	"mrapid/internal/memo"
	"mrapid/internal/metrics"
	"mrapid/internal/profiler"
	"mrapid/internal/topology"
	"mrapid/internal/workloads"
)

// by reads how the decision maker came by a finished job's mode.
func by(r *mapreduce.Result) string { return r.Profile.Decision.Source }

// runSpeculative drives one speculative submission to completion.
func runSpeculative(t *testing.T, f *Framework, spec *mapreduce.JobSpec) *mapreduce.Result {
	t.Helper()
	rt := f.RT
	var res *mapreduce.Result
	rt.Eng.After(0, func() {
		f.Submit(ModeSpeculative, spec, func(r *mapreduce.Result) {
			res = r
			rt.RM.Stop()
		})
	})
	rt.Eng.RunUntil(horizon)
	if res == nil {
		t.Fatal("speculative job never completed")
	}
	return res
}

func TestSpeculativeFirstRunRacesAndDecides(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f := startFramework(t, rt, 3)
	names, all := stageInput(t, rt, 4, 1<<20)
	res := runSpeculative(t, f, testWCSpec(names, "/out"))
	if res.Err != nil {
		t.Fatalf("job failed: %v", res.Err)
	}
	if by(res) == profiler.ByHistory {
		t.Fatal("first run claimed a history hit")
	}
	if ModeKind(res.Mode) != ModeDPlus && ModeKind(res.Mode) != ModeUPlus {
		t.Fatalf("winner = %q", ModeKind(res.Mode))
	}
	// The decision used the estimator (both estimates populated) unless a
	// mode finished before any sample — impossible here given map counts.
	if res.Profile.Decision.EstimateD == 0 || res.Profile.Decision.EstimateU == 0 {
		t.Fatalf("estimates missing: D=%v U=%v", res.Profile.Decision.EstimateD, res.Profile.Decision.EstimateU)
	}
	verifyWC(t, rt, "/out", all)
	// Temporary outputs were cleaned up.
	for _, name := range rt.DFS.List() {
		if len(name) > 4 && name[:5] == "/out." {
			t.Errorf("leftover temp file %s", name)
		}
	}
	// Both AMs returned to the pool.
	if f.Pool.Idle() != 3 {
		t.Fatalf("pool idle = %d, want 3", f.Pool.Idle())
	}
	// History recorded the winner.
	if w, ok := f.History.Winner("wordcount"); !ok || w != ModeKind(res.Mode) {
		t.Fatalf("history winner = %v/%v, want %v", w, ok, ModeKind(res.Mode))
	}
}

func TestSpeculativeSecondRunUsesHistory(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f := startFramework(t, rt, 3)
	names, _ := stageInput(t, rt, 4, 1<<20)
	first := runSpeculative(t, f, testWCSpec(names, "/out1"))

	spec2 := testWCSpec(names, "/out2")
	var second *mapreduce.Result
	rt.Eng.After(0, func() {
		rt.RM.Start()
		f.Submit(ModeSpeculative, spec2, func(r *mapreduce.Result) {
			second = r
			rt.RM.Stop()
		})
	})
	rt.Eng.RunUntil(horizon)
	if second == nil || second.Err != nil {
		t.Fatalf("second run failed: %+v", second)
	}
	if by(second) != profiler.ByHistory {
		t.Fatal("second run did not use the history pre-decision")
	}
	if second.Mode != first.Mode {
		t.Fatalf("history winner %v != first run winner %v", second.Mode, first.Mode)
	}
	// With only one mode running, the second run is at least as fast as the
	// first (no speculative overhead contending for resources).
	if second.Elapsed() > first.Elapsed()*1.25 {
		t.Errorf("history run (%.2fs) much slower than speculative run (%.2fs)",
			second.Elapsed(), first.Elapsed())
	}
}

func TestSpeculativeHistoryPersistsAcrossFrameworks(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f := startFramework(t, rt, 3)
	names, _ := stageInput(t, rt, 4, 512<<10)
	runSpeculative(t, f, testWCSpec(names, "/out1"))

	// A new framework over the same DFS (proxy restart) loads the history.
	f2 := NewFramework(rt, 0, FullUPlus())
	ready := false
	rt.Eng.After(0, func() { f2.Start(func() { ready = true }) })
	rt.Eng.RunUntil(rt.Eng.Now().Add(1 << 30))
	if !ready {
		t.Fatal("second framework never started")
	}
	if _, ok := f2.History.Winner("wordcount"); !ok {
		t.Fatal("restarted proxy lost the execution history")
	}
}

// threeSecondSplits charges 3 s of compute per map, eightSecondSplits 8 s,
// which dwarfs launch overhead, whatever the split holds. Named functions
// keep the specs reusable, as a fixed cost left them.
func threeSecondSplits(*hdfs.Split) time.Duration { return 3 * time.Second }
func eightSecondSplits(*hdfs.Split) time.Duration { return 8 * time.Second }

func TestSpeculativeComputeBoundJobPicksUPlus(t *testing.T) {
	t.Parallel()
	// A PI-like job: 4 tiny splits, heavy fixed compute. One U+ wave does
	// all maps in parallel with no container launches; the estimator must
	// pick U+.
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f := startFramework(t, rt, 3)
	var names []string
	for i := 0; i < 4; i++ {
		name := mapreduce.PartFileName("/in/pi", i)
		rt.DFS.PutInstant(name, []byte("x\n"), rt.Cluster.Workers()[i%4])
		names = append(names, name)
	}
	spec := testWCSpec(names, "/out")
	spec.JobKey = "pi-like"
	spec.SplitCost = threeSecondSplits
	res := runSpeculative(t, f, spec)
	if res.Err != nil {
		t.Fatalf("job failed: %v", res.Err)
	}
	if ModeKind(res.Mode) != ModeUPlus {
		t.Fatalf("winner = %v, want uplus for a compute-bound 4-map job (estimates D=%v U=%v)",
			ModeKind(res.Mode), res.Profile.Decision.EstimateD, res.Profile.Decision.EstimateU)
	}
}

func TestSpeculativeWideJobPicksDPlus(t *testing.T) {
	t.Parallel()
	// 16 heavy maps on a 4-core U+ node need 4 waves; 16 D+ containers do
	// one wave. D+ must win.
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f := startFramework(t, rt, 3)
	names, _ := stageInput(t, rt, 16, 64<<10)
	spec := testWCSpec(names, "/out")
	spec.JobKey = "wide"
	spec.SplitCost = eightSecondSplits
	res := runSpeculative(t, f, spec)
	if res.Err != nil {
		t.Fatalf("job failed: %v", res.Err)
	}
	if ModeKind(res.Mode) != ModeDPlus {
		t.Fatalf("winner = %v, want dplus (estimates D=%v U=%v)",
			ModeKind(res.Mode), res.Profile.Decision.EstimateD, res.Profile.Decision.EstimateU)
	}
}

// A race needs a reserved AM per side. On a smaller pool the submission is an
// error result naming the pool size — the job fails alone, the way the
// JobServer refuses it — where the speculative entry used to panic the process.
func TestSpeculativeNeedsPool(t *testing.T) {
	t.Parallel()
	rt, reg := memoRuntime(t)
	f := startFramework(t, rt, 1)
	f.Memo = memo.New(reg, rt.Cluster.Workers(), memo.Config{})
	if _, err := rt.DFS.PutInstant("/in/x", []byte("alpha beta\n"), nil); err != nil {
		t.Fatal(err)
	}
	spec := workloads.WordCountSpec("needs-pool", []string{"/in/x"}, "/out", false)
	var res *mapreduce.Result
	f.Submit(ModeSpeculative, spec, func(r *mapreduce.Result) { res = r })
	if res == nil || res.Err == nil || !strings.Contains(res.Err.Error(), "at least 2, have 1") {
		t.Fatalf("speculation on a 1-AM pool = %+v, want an error result naming the pool size", res)
	}
	// Validity comes before the memo step: a job that cannot run looks nothing up.
	if n := reg.Get("memo_misses_total") + reg.Get("memo_hits_total"); n != 0 {
		t.Fatalf("a job that cannot run consulted the memo cache %d times", n)
	}
	srv, err := NewJobServer(f, JobServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	err = srv.Submit("", ModeSpeculative, spec, func(*mapreduce.Result) {})
	if err == nil || err.Error() != res.Err.Error() {
		t.Fatalf("JobServer refused with %v, Framework.Submit with %v", err, res.Err)
	}
}

// failAllMapAttempts scripts every attempt of every map task to crash
// almost immediately, for jobs whose output file the filter accepts.
func failAllMapAttempts(rt *mapreduce.Runtime, splits, maxAttempts int, filter func(string) bool) {
	fi := new(mapreduce.FaultInjector)
	fi.JobFilter = filter
	for idx := 0; idx < splits; idx++ {
		for a := 0; a < maxAttempts; a++ {
			fi.Fail("map", idx, a, 0.01)
		}
	}
	rt.Faults = fi
}

// Regression for the speculative-race failure bug: a mode that crashes
// (here U+, via fatal map faults exhausting MaxTaskAttempts) used to be
// declared the race winner — killing the healthy D+, promoting a
// nonexistent output, and failing the whole job. The crashed mode must
// drop out and the survivor must win.
func TestSpeculativeSurvivesOneModeCrash(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f := startFramework(t, rt, 3)
	names, all := stageInput(t, rt, 4, 1<<20)
	failAllMapAttempts(rt, 4, rt.Params.MaxTaskAttempts, func(out string) bool {
		return strings.HasSuffix(out, ".__uplus")
	})

	res := runSpeculative(t, f, testWCSpec(names, "/out"))
	if res.Err != nil {
		t.Fatalf("job failed despite a healthy D+ mode: %v", res.Err)
	}
	if ModeKind(res.Mode) != ModeDPlus {
		t.Fatalf("winner = %v, want the surviving dplus", ModeKind(res.Mode))
	}
	if rt.Faults.Injected == 0 {
		t.Fatal("no faults delivered; the test exercised nothing")
	}
	verifyWC(t, rt, "/out", all)
	// The crashed mode's temp output is cleaned up.
	for _, name := range rt.DFS.List() {
		if strings.HasPrefix(name, "/out.__") {
			t.Errorf("leftover temp file %s", name)
		}
	}
	// Both AMs returned to the pool (the crashed one released on failure).
	if f.Pool.Idle() != 3 {
		t.Fatalf("pool idle = %d, want 3", f.Pool.Idle())
	}
	// The survivor's win is recorded for future pre-decisions.
	if w, ok := f.History.Winner("wordcount"); !ok || w != ModeDPlus {
		t.Fatalf("history winner = %v/%v", w, ok)
	}
}

// Mirror case: D+ crashes, U+ survives and wins.
func TestSpeculativeSurvivesDPlusCrash(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f := startFramework(t, rt, 3)
	names, all := stageInput(t, rt, 4, 1<<20)
	failAllMapAttempts(rt, 4, rt.Params.MaxTaskAttempts, func(out string) bool {
		return strings.HasSuffix(out, ".__dplus")
	})

	res := runSpeculative(t, f, testWCSpec(names, "/out"))
	if res.Err != nil {
		t.Fatalf("job failed despite a healthy U+ mode: %v", res.Err)
	}
	if ModeKind(res.Mode) != ModeUPlus {
		t.Fatalf("winner = %v, want the surviving uplus", ModeKind(res.Mode))
	}
	verifyWC(t, rt, "/out", all)
	if f.Pool.Idle() != 3 {
		t.Fatalf("pool idle = %d, want 3", f.Pool.Idle())
	}
}

// Only when both modes crash does the speculative job fail as a whole —
// with the underlying task error, clean temp state, and a free pool.
func TestSpeculativeBothModesCrashFailsJob(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f := startFramework(t, rt, 3)
	names, _ := stageInput(t, rt, 4, 512<<10)
	failAllMapAttempts(rt, 4, rt.Params.MaxTaskAttempts, nil) // both modes

	res := runSpeculative(t, f, testWCSpec(names, "/out"))
	if res.Err == nil {
		t.Fatal("job succeeded with every mode crashed")
	}
	for _, name := range rt.DFS.List() {
		if strings.HasPrefix(name, "/out") {
			t.Errorf("output or temp file %s exists after total failure", name)
		}
	}
	if f.Pool.Idle() != 3 {
		t.Fatalf("pool idle = %d, want 3", f.Pool.Idle())
	}
	// A failed run must not poison the history with a phantom winner.
	if _, ok := f.History.Winner("wordcount"); ok {
		t.Fatal("failed job recorded a history winner")
	}
}

func TestSpeculativeOutputMatchesSingleMode(t *testing.T) {
	t.Parallel()
	// The speculative pipeline (temp outputs + rename) must not corrupt the
	// result: compare with a plain D+ run.
	mk := func() (*mapreduce.Runtime, *Framework, []string, []byte) {
		rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
		f := startFramework(t, rt, 3)
		names, all := stageInput(t, rt, 4, 512<<10)
		return rt, f, names, all
	}
	rtA, fA, namesA, allA := mk()
	resA := runSpeculative(t, fA, testWCSpec(namesA, "/out"))
	if resA.Err != nil {
		t.Fatal(resA.Err)
	}
	verifyWC(t, rtA, "/out", allA)

	rtB, fB, namesB, _ := mk()
	var resB *mapreduce.Result
	rtB.Eng.After(0, func() {
		fB.Submit(ModeDPlus, testWCSpec(namesB, "/out"), func(r *mapreduce.Result) {
			resB = r
			rtB.RM.Stop()
		})
	})
	rtB.Eng.RunUntil(horizon)
	a, _ := rtA.DFS.Contents(mapreduce.PartFileName("/out", 0))
	b, _ := rtB.DFS.Contents(mapreduce.PartFileName("/out", 0))
	if string(a) != string(b) {
		t.Fatal("speculative output differs from plain D+ output")
	}
	_ = resB
}

// A fresh job key must race even when the same program over the same bytes
// has already raced under other keys: only a key's own exact-history record
// pre-decides, so every first sight runs the full dual launch.
func TestPredictFirstSightStillRaces(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	rt.Reg = metrics.New()
	f := startFramework(t, rt, 3)
	names, all := stageInput(t, rt, 4, 1<<20)

	const jobs = 3
	for i := 0; i < jobs; i++ {
		if i > 0 {
			rt.RM.Start() // the previous job's completion stopped it
		}
		out := fmt.Sprintf("/out/%d", i)
		spec := testWCSpec(names, out)
		spec.Name = fmt.Sprintf("wc-%d", i)
		spec.JobKey = spec.Name
		res := runSpeculative(t, f, spec)
		if res.Err != nil {
			t.Fatalf("job %d failed: %v", i, res.Err)
		}
		if by(res) != profiler.ByRace {
			t.Fatalf("first sight of key %s decided by %q, want a race", spec.JobKey, by(res))
		}
		verifyWC(t, rt, out, all)
	}
	if got := rt.Reg.Get("estimator_race_total"); got != jobs {
		t.Fatalf("race counter = %d, want %d", got, jobs)
	}
	// Each race seeded its own key's record.
	if f.History.Len() != jobs {
		t.Fatalf("history holds %d keys, want %d", f.History.Len(), jobs)
	}
}
