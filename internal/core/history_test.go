package core

import (
	"testing"
	"time"

	"mrapid/internal/profiler"
	"mrapid/internal/topology"
)

// Regression for the history-feedback bug: Record used to overwrite Elapsed
// with the last run's value while still counting Runs++, so one anomalous
// run rewrote the whole record. Elapsed must be the running mean over every
// recorded run.
func TestHistoryRecordRunningAggregates(t *testing.T) {
	t.Parallel()
	h := NewHistory()
	h.Record("job", ModeDPlus, 10*time.Second)
	h.Record("job", ModeDPlus, 20*time.Second)
	h.Record("job", ModeDPlus, 30*time.Second)

	e, ok := h.Entry("job")
	if !ok || e.Runs != 3 {
		t.Fatalf("entry = %+v / %v", e, ok)
	}
	if e.Elapsed != 20*time.Second {
		t.Errorf("Elapsed = %v, want the 20s running mean, not the last run", e.Elapsed)
	}
}

// A snapshot written when entries also carried per-job map averages
// (avg_map_cpu, avg_in, avg_out) still loads, with everything the decision
// maker reads intact.
func TestHistoryLoadsSnapshotWithDroppedAggregates(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 2, NewDPlusScheduler(FullDPlus()))
	old := `{"version": 2, "jobs": [{"job": "wordcount", "winner": "uplus", "elapsed": 9000000000,
		"avg_map_cpu": 1500000000, "avg_in": 10485760, "avg_out": 12582912, "runs": 3,
		"wins": {"dplus": 1, "uplus": 2}}]}`
	if _, err := rt.DFS.PutInstant(historyPath, []byte(old), nil); err != nil {
		t.Fatal(err)
	}
	h := NewHistory()
	if err := h.Load(rt.DFS); err != nil {
		t.Fatal(err)
	}
	e, ok := h.Entry("wordcount")
	if !ok || e.Winner != ModeUPlus || e.Elapsed != 9*time.Second || e.Runs != 3 || e.Wins[ModeUPlus] != 2 {
		t.Fatalf("loaded entry = %+v / %v", e, ok)
	}
}

// The winner is a majority vote with ties going to the latest run: a single
// anomalous U+ win amid a D+ streak must not flip the decision.
func TestHistoryWinnerMajorityVote(t *testing.T) {
	t.Parallel()
	h := NewHistory()
	h.Record("job", ModeDPlus, 10*time.Second)
	h.Record("job", ModeDPlus, 10*time.Second)
	h.Record("job", ModeUPlus, 9*time.Second) // anomaly: 2-1 for D+
	if w, _ := h.Winner("job"); w != ModeDPlus {
		t.Fatalf("winner = %v after a 2-1 D+ majority", w)
	}
	// Two more U+ wins (3-2) flip it legitimately.
	h.Record("job", ModeUPlus, 9*time.Second)
	h.Record("job", ModeUPlus, 9*time.Second)
	if w, _ := h.Winner("job"); w != ModeUPlus {
		t.Fatalf("winner = %v after a 3-2 U+ majority", w)
	}
}

// The version-2 snapshot round-trips both the exact-match entries and the
// per-class calibration aggregates.
func TestHistoryV2RoundTripWithClasses(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 2, NewDPlusScheduler(FullDPlus()))
	h := NewHistory()
	h.Record("wordcount", ModeDPlus, 20*time.Second)
	for i := 0; i < 4; i++ {
		h.Observe("class-abc", ModeDPlus, 20*time.Second, 18*time.Second, profilerSummary())
	}
	if err := h.Save(rt.DFS); err != nil {
		t.Fatal(err)
	}
	h2 := NewHistory()
	if err := h2.Load(rt.DFS); err != nil {
		t.Fatal(err)
	}
	if h2.Len() != 1 {
		t.Fatalf("loaded %d entries", h2.Len())
	}
	cs, ok := h2.Class("class-abc")
	if !ok || cs.Runs != 4 {
		t.Fatalf("class = %+v / %v", cs, ok)
	}
	want, _ := h.Class("class-abc")
	if cs.Rate.Mean != want.Rate.Mean || cs.Calib.N != want.Calib.N {
		t.Fatalf("class aggregates lost in round-trip: %+v vs %+v", cs, want)
	}
	if !h2.Confident("class-abc") {
		t.Fatal("identical samples over minRuns must pass the confidence gate")
	}
}

// The confidence gate: too few runs, noisy across-run rates, or internally
// skewed maps all keep a class racing.
func TestHistoryConfidenceGate(t *testing.T) {
	t.Parallel()
	h := NewHistory()
	stable := profilerSummary()

	// Under minRuns: never confident.
	h.Observe("young", ModeDPlus, 20*time.Second, 18*time.Second, stable)
	h.Observe("young", ModeDPlus, 20*time.Second, 18*time.Second, stable)
	if h.Confident("young") {
		t.Fatal("confident after 2 runs with minRuns=3")
	}
	h.Observe("young", ModeDPlus, 20*time.Second, 18*time.Second, stable)
	if !h.Confident("young") {
		t.Fatal("not confident after 3 identical runs")
	}

	// Noisy per-byte rate across runs: CV blows past maxCV.
	for i, cpu := range []time.Duration{500 * time.Millisecond, 3 * time.Second, 9 * time.Second} {
		s := stable
		s.AvgMapCPU = cpu
		h.Observe("noisy", ModeDPlus, 20*time.Second, 18*time.Second, s)
		_ = i
	}
	if h.Confident("noisy") {
		t.Fatal("confident despite wildly varying map rates")
	}

	// Internally skewed maps: high within-job CV keeps the class gated even
	// when the across-run aggregates are stable.
	skewed := stable
	skewed.MapCPUStd = 2 * skewed.AvgMapCPU
	for i := 0; i < 3; i++ {
		h.Observe("skewed", ModeDPlus, 20*time.Second, 18*time.Second, skewed)
	}
	if h.Confident("skewed") {
		t.Fatal("confident despite intra-job map skew above maxIntraCV")
	}

	// Unknown class: not confident, no panic.
	if h.Confident("never-seen") {
		t.Fatal("confident about an unknown class")
	}
}

// Observe ignores unusable samples instead of poisoning the aggregates.
func TestHistoryObserveGuards(t *testing.T) {
	t.Parallel()
	h := NewHistory()
	h.Observe("", ModeDPlus, time.Second, time.Second, profilerSummary())
	h.Observe("c", ModeDPlus, time.Second, time.Second, profiler.Summary{})
	if len(h.Classes()) != 0 {
		t.Fatalf("guarded samples created classes: %+v", h.Classes())
	}
}
