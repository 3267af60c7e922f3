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
