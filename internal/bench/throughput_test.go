package bench

import (
	"testing"
	"time"

	"mrapid/internal/core"
)

// TestThroughputSmoke runs a reduced multi-tenant workload through the
// JobServer under both admission policies — the CI gate for the whole
// submission stack (lifecycle, admission, queues, arrival processes).
func TestThroughputSmoke(t *testing.T) {
	t.Parallel()
	o := Options{Scale: 0.05, Seed: 7}
	for _, policy := range []core.AdmissionPolicy{core.PolicyFIFO, core.PolicyWeightedFair} {
		r, err := RunThroughput(A3x4(), WorkloadConfig{
			Jobs: 12, Tenants: 3, Arrival: "poisson:200ms", Policy: policy,
		}, o)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		checkWorkload(t, "smoke policy="+string(policy), r)
		if r.Jobs != 12 || r.Makespan <= 0 {
			t.Fatalf("%s: degenerate result %+v", policy, r)
		}
		if r.P50 <= 0 || r.P99 < r.P50 {
			t.Errorf("%s: latency quantiles wrong: p50=%v p99=%v", policy, r.P50, r.P99)
		}
		if r.Fairness <= 0 || r.Fairness > 1+1e-9 {
			t.Errorf("%s: Jain index out of range: %v", policy, r.Fairness)
		}
		for _, name := range r.TenantOrder {
			ts := r.Tenants[name]
			if ts.Jobs != 4 {
				t.Errorf("%s: tenant %s completed %d jobs, want 4", policy, name, ts.Jobs)
			}
		}
	}
	fig, err := Throughput(o)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, o)
}

// TestThroughputDeterminism pins that the workload driver is a pure function
// of its inputs: two runs with identical options agree exactly.
func TestThroughputDeterminism(t *testing.T) {
	t.Parallel()
	run := func() *ThroughputResult {
		r, err := RunThroughput(A3x4(), WorkloadConfig{
			Jobs: 8, Tenants: 2, Arrival: "poisson:300ms", Policy: core.PolicyWeightedFair,
		}, Options{Scale: 0.05, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	checkWorkload(t, "determinism", a)
	if a.Makespan != b.Makespan || a.P50 != b.P50 || a.P99 != b.P99 || a.MeanWait != b.MeanWait {
		t.Fatalf("runs diverged:\n a=%+v\n b=%+v", a, b)
	}
}

// TestArrivalTimes covers the arrival-spec parser.
func TestArrivalTimes(t *testing.T) {
	t.Parallel()
	if ts, err := arrivalTimes("burst", 3, 1); err != nil || ts[0] != 0 || ts[2] != 0 {
		t.Errorf("burst: %v %v", ts, err)
	}
	if ts, err := arrivalTimes("uniform:100ms", 3, 1); err != nil || ts[2] != 200*time.Millisecond {
		t.Errorf("uniform: %v %v", ts, err)
	}
	ts, err := arrivalTimes("poisson:100ms", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Errorf("poisson arrivals not increasing: %v", ts)
		}
	}
	again, _ := arrivalTimes("poisson:100ms", 4, 1)
	for i := range ts {
		if ts[i] != again[i] {
			t.Fatalf("poisson arrivals not deterministic: %v vs %v", ts, again)
		}
	}
	for _, bad := range []string{"normal:1s", "uniform:-5s", "uniform:x", "poisson:0s"} {
		if _, err := arrivalTimes(bad, 2, 1); err == nil {
			t.Errorf("arrival %q accepted", bad)
		}
	}
}

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
