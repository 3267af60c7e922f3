package bench

import (
	"testing"
)

// Regression for the percentile off-by-one: nearest-rank means the smallest
// value with at least ⌈p·n⌉ samples at or below it. The old int(p·n) index
// read one rank too high (p50 of 10 samples returned the 6th value).
func TestPercentileNearestRank(t *testing.T) {
	t.Parallel()
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{7}, 0.99, 7},
		{"p0 clamps to first", ten, 0, 1},
		{"p50 of 10 is the 5th", ten, 0.50, 5},
		{"p90 of 10 is the 9th", ten, 0.90, 9},
		{"p99 of 10 is the 10th", ten, 0.99, 10},
		{"p100 of 10 is the 10th", ten, 1.0, 10},
		{"p50 of 4 is the 2nd", []float64{10, 20, 30, 40}, 0.50, 20},
		{"p25 of 4 is the 1st", []float64{10, 20, 30, 40}, 0.25, 10},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", c.name, c.sorted, c.p, got, c.want)
		}
	}
}

// TestWarmSweepSmoke is the CI gate for the calibrating estimator: on a
// reduced warm workload the predicted rows must actually skip dual-launches,
// spend materially fewer cluster-slot seconds than the always-racing
// baseline, and produce byte-identical outputs.
func TestWarmSweepSmoke(t *testing.T) {
	t.Parallel()
	o := Options{Scale: 0.05, Seed: 7}
	cfgRace := warmWorkload(false)
	cfgPred := warmWorkload(true)
	cfgRace.Jobs, cfgPred.Jobs = 10, 10

	race, err := RunThroughput(A3x4(), cfgRace, o)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := RunThroughput(A3x4(), cfgPred, o)
	if err != nil {
		t.Fatal(err)
	}

	checkWorkload(t, "warm race-always", race)
	checkWorkload(t, "warm calibrated", pred)
	fig, err := Warm(o)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, o)

	// The baseline raced everything; the calibrated run raced only until the
	// class converged (minRuns=3) and pre-decided the rest.
	if race.Races != 10 || race.DirectPrediction != 0 {
		t.Fatalf("baseline: races=%d direct=%d, want 10/0", race.Races, race.DirectPrediction)
	}
	if pred.Races != 3 {
		t.Errorf("calibrated run raced %d jobs, want the 3 warm-up races", pred.Races)
	}
	if pred.DirectPrediction != 7 {
		t.Errorf("calibrated run pre-decided %d jobs, want 7", pred.DirectPrediction)
	}
	// Slot-seconds are the headline: direct picks hold one admission slot
	// instead of two, so consumption must drop materially.
	if pred.SlotSeconds >= 0.8*race.SlotSeconds {
		t.Errorf("slot-seconds %0.1f not materially below the always-racing %0.1f",
			pred.SlotSeconds, race.SlotSeconds)
	}
	if pred.PredErrMean < 0 || pred.PredErrMean > 0.5 {
		t.Errorf("mean prediction error %v out of plausible range", pred.PredErrMean)
	}
	// Correctness contract: every job's output identical across the rows.
	for job, want := range race.OutputHashes {
		if got := pred.OutputHashes[job]; got != want {
			t.Errorf("job %s: output %s under prediction, %s under the race", job, got, want)
		}
	}
}
