package flight

import (
	"testing"
	"time"

	"mrapid/internal/sim"
)

func sloFixture() (*sim.Engine, *SLOTracker) {
	return sim.NewEngine(), newSLOTracker(SLOConfig{TargetWait: time.Second})
}

func TestSLOQuantileTracksWaits(t *testing.T) {
	eng, tr := sloFixture()
	eng.At(0, func() {
		for i := 0; i < 99; i++ {
			tr.JobAdmitted("acme", 100*time.Millisecond)
		}
		tr.JobAdmitted("acme", 50*time.Second)
	})
	eng.Run()
	// 99% of waits are 0.1s; the p99 must sit in the 0.1s bucket region,
	// far below the one 50s outlier.
	p99 := tr.P99Wait("acme")
	if p99 <= 0 || p99 > 0.25 {
		t.Fatalf("p99 = %v, want within (0, 0.25]", p99)
	}
	h := tr.WaitHistogram("acme")
	if h.Count != 100 {
		t.Fatalf("histogram count = %d", h.Count)
	}
	if total, bad := tr.Events("acme"); total != 100 || bad != 1 {
		t.Fatalf("events = (%d,%d), want (100,1)", total, bad)
	}

	// Completions are not events: counted as good ones they would dilute
	// the bad fraction.
	tr.JobCompleted("acme", true)
	tr.JobCompleted("acme", false)
	if total, _ := tr.Events("acme"); total != 100 {
		t.Fatalf("completions added %d events", total-100)
	}

	// An unknown tenant has no events and no histogram.
	if total, bad := tr.Events("ghost"); total != 0 || bad != 0 || tr.WaitHistogram("ghost") != nil {
		t.Fatal("unknown tenant has SLO state")
	}
}

func TestSLOSampleEmitsSeries(t *testing.T) {
	eng, tr := sloFixture()
	got := map[string]float64{}
	eng.At(0, func() {
		tr.JobAdmitted("acme", 5*time.Second) // bad
		tr.JobAdmitted("acme", 500*time.Millisecond)
		tr.sample(func(name string, v float64) { got[name] = v })
	})
	eng.Run()

	want := map[string]float64{
		"slo_queue_wait_p99_seconds{tenant=acme}": tr.P99Wait("acme"),
		"slo_events_total{tenant=acme}":           2,
		"slo_bad_events_total{tenant=acme}":       1,
	}
	if len(got) != len(want) {
		t.Errorf("emitted %v, want exactly the series of %v", got, want)
	}
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			t.Errorf("series %q = %v (emitted %v), want %v", name, g, ok, v)
		}
	}
}
