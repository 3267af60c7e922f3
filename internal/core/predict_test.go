package core

import (
	"fmt"
	"testing"
	"time"

	"mrapid/internal/mapreduce"
	"mrapid/internal/metrics"
	"mrapid/internal/profiler"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
)

// uniqueKeySpec builds the shared-class WordCount spec under a fresh JobKey,
// so the exact-match history can never answer and only the class estimator
// could pre-decide.
func uniqueKeySpec(names []string, i int) *mapreduce.JobSpec {
	spec := testWCSpec(names, fmt.Sprintf("/out/%d", i))
	spec.Name = fmt.Sprintf("wc-%d", i)
	spec.JobKey = spec.Name
	return spec
}

// runSpeculativeSeq drives n class-identical, key-unique speculative jobs
// through the framework, one after another, returning every result.
func runSpeculativeSeq(t *testing.T, f *Framework, names []string, n int) []*mapreduce.Result {
	t.Helper()
	out := make([]*mapreduce.Result, 0, n)
	for i := 0; i < n; i++ {
		i := i
		spec := uniqueKeySpec(names, i)
		var res *mapreduce.Result
		f.RT.Eng.After(0, func() {
			if i > 0 {
				f.RT.RM.Start() // the previous job's completion stopped it
			}
			f.Submit(ModeSpeculative, spec, func(r *mapreduce.Result) {
				res = r
				f.RT.RM.Stop()
			})
		})
		f.RT.Eng.RunUntil(horizon)
		if res == nil {
			t.Fatalf("job %d never completed", i)
		}
		if res.Err != nil {
			t.Fatalf("job %d failed: %v", i, res.Err)
		}
		out = append(out, res)
	}
	return out
}

// A first-sight workload class must race even with prediction enabled: the
// estimator has no aggregates, so the full dual-launch runs and calibrates.
func TestPredictFirstSightStillRaces(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	rt.Reg = metrics.New()
	f := startFramework(t, rt, 3)
	f.Predict = true
	names, all := stageInput(t, rt, 4, 1<<20)

	res := runSpeculativeSeq(t, f, names, 1)[0]
	if by(res) == profiler.ByPrediction || by(res) == profiler.ByHistory {
		t.Fatalf("first-sight job skipped the race: %+v", res)
	}
	if rt.Reg.Get("estimator_race_total") != 1 {
		t.Fatalf("race counter = %d, want 1", rt.Reg.Get("estimator_race_total"))
	}
	verifyWC(t, rt, "/out/0", all)
	// The race's outcome seeded the class aggregates.
	if cs, ok := f.History.Class(uniqueKeySpec(names, 0).ClassKey()); !ok || cs.Runs != 1 {
		t.Fatalf("class aggregates not seeded: %+v / %v", cs, ok)
	}
}

// The estimator's acceptance path: after minRuns races of one workload class,
// a new job of that class (fresh key, same shape) launches its predicted
// winner directly — no dual-launch — with byte-identical output, and the
// prediction error lands in the metrics.
func TestPredictConvergedClassGoesDirect(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	rt.Reg = metrics.New()
	f := startFramework(t, rt, 3)
	f.Predict = true
	names, all := stageInput(t, rt, 4, 1<<20)

	results := runSpeculativeSeq(t, f, names, 4)
	for i, res := range results[:3] {
		if by(res) == profiler.ByPrediction {
			t.Fatalf("warm-up job %d predicted before the class converged", i)
		}
	}
	last := results[3]
	if by(last) != profiler.ByPrediction {
		t.Fatalf("converged class still raced: %+v (class %+v)",
			last, f.History.Classes())
	}
	if last.Mode != results[2].Mode {
		t.Fatalf("predicted winner %v != racing winner %v", last.Mode, results[2].Mode)
	}
	if last.Profile.Decision.Predicted <= 0 {
		t.Fatalf("direct pick carried no runtime prediction: %+v", last)
	}
	verifyWC(t, rt, "/out/3", all)

	if got := rt.Reg.Get(metrics.With("estimator_direct_total", "source", "prediction")); got != 1 {
		t.Fatalf("direct-prediction counter = %d, want 1", got)
	}
	if got := rt.Reg.Get("estimator_race_total"); got != 3 {
		t.Fatalf("race counter = %d, want the 3 warm-up races", got)
	}
	h := rt.Reg.Histograms()["estimator_prediction_error"]
	if h == nil || h.Count != 1 {
		t.Fatalf("prediction-error histogram missing or short: %+v", h)
	}
	// The prediction should be in the right ballpark: identical inputs, so
	// the calibrated estimate lands near the measured runtime.
	if h.Mean() > 0.35 {
		t.Errorf("mean relative prediction error %.2f above 35%%", h.Mean())
	}

	// Prediction stays off unless opted in: with the flag cleared, the same
	// confident class must not answer.
	f.Predict = false
	if _, ok := f.PredictMode(uniqueKeySpec(names, 9)); ok {
		t.Fatal("PredictMode answered with Predict disabled")
	}
}

// Golden determinism: a direct-picked job's output must be byte-identical to
// what the full race would have produced in an identical universe.
func TestPredictDirectOutputMatchesRace(t *testing.T) {
	t.Parallel()
	run := func(predict bool) (*mapreduce.Runtime, *mapreduce.Result) {
		rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
		f := startFramework(t, rt, 3)
		f.Predict = predict
		names, _ := stageInput(t, rt, 4, 512<<10)
		results := runSpeculativeSeq(t, f, names, 4)
		return rt, results[3]
	}
	rtRace, raceRes := run(false)
	rtPred, predRes := run(true)
	if (by(predRes) == profiler.ByPrediction) == (by(raceRes) == profiler.ByPrediction) {
		t.Fatalf("expected one direct pick and one race: predict=%v race=%v",
			by(predRes) == profiler.ByPrediction, by(raceRes) == profiler.ByPrediction)
	}
	a, err := rtRace.DFS.Contents(mapreduce.PartFileName("/out/3", 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := rtPred.DFS.Contents(mapreduce.PartFileName("/out/3", 0))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("direct-picked output differs from the race's output")
	}
}

// Regret accounting: when the skipped mode — re-estimated from the direct
// run's own measured sample — would have finished sooner than we actually
// did, the pick is charged to the regret counter and histogram.
func TestPredictRegretAccounting(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	rt.Reg = metrics.New()
	f := startFramework(t, rt, 3)
	names, _ := stageInput(t, rt, 4, 1<<20)
	spec := uniqueKeySpec(names, 0)

	// A run that took 60 s wall time whose tiny measured maps put either
	// mode's model estimate far below that: the skipped mode must register
	// as regret.
	prof := &profiler.JobProfile{Job: spec.Key(), Mode: string(ModeDPlus), DoneAt: sim.Time(60 * time.Second)}
	prof.Add(&profiler.TaskProfile{
		Kind: profiler.MapTask, ComputeDur: 50 * time.Millisecond,
		InputBytes: 1 << 20, OutputBytes: 1 << 20,
	})
	pred := &Prediction{Class: spec.ClassKey(), Mode: ModeDPlus, Runtime: 55 * time.Second}
	f.accountPrediction(pred, spec, &mapreduce.Result{Spec: spec, Profile: prof})

	if got := rt.Reg.Get(metrics.With("estimator_regret_total", "picked", string(ModeDPlus))); got != 1 {
		t.Fatalf("regret counter = %d, want 1", got)
	}
	h := rt.Reg.Histograms()["estimator_regret_seconds"]
	if h == nil || h.Count != 1 || h.Sum <= 0 {
		t.Fatalf("regret histogram missing or empty: %+v", h)
	}
	if e := rt.Reg.Histograms()["estimator_prediction_error"]; e == nil || e.Count != 1 {
		t.Fatalf("prediction-error histogram missing: %+v", e)
	}
}
