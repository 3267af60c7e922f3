package flight

import (
	"math"
	"strings"
	"testing"
	"time"

	"mrapid/internal/sim"
	"mrapid/internal/trace"
)

func sloFixture() (*sim.Engine, *trace.Log, *SLOTracker) {
	eng := sim.NewEngine()
	tlog := trace.New(eng, 0)
	tr := NewSLOTracker(eng, tlog, SLOConfig{TargetWait: time.Second})
	return eng, tlog, tr
}

func TestSLOBurnRateMath(t *testing.T) {
	eng, _, tr := sloFixture()

	// 4 admissions: 1 over target → bad fraction 0.25, budget 0.1 → burn 2.5.
	eng.At(0, func() {
		tr.JobAdmitted("acme", 100*time.Millisecond)
		tr.JobAdmitted("acme", 200*time.Millisecond)
		tr.JobAdmitted("acme", 5*time.Second) // bad
		tr.JobAdmitted("acme", 900*time.Millisecond)
	})
	eng.Run()

	if got := tr.BurnRate("acme", 30*time.Second); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("burn = %v, want 2.5", got)
	}
	total, bad := tr.Events("acme")
	if total != 4 || bad != 1 {
		t.Fatalf("events = (%d,%d), want (4,1)", total, bad)
	}

	// Completions are not events: counted as good ones they would dilute
	// the burn.
	eng.At(sim.Time(time.Second), func() {
		tr.JobCompleted("acme", true)
		tr.JobCompleted("acme", false)
	})
	eng.Run()
	if got := tr.BurnRate("acme", 30*time.Second); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("burn after completions = %v, want 2.5", got)
	}
	if total, _ := tr.Events("acme"); total != 4 {
		t.Fatalf("completions added %d events", total-4)
	}

	// Unknown tenant and empty window are zero, not NaN.
	if tr.BurnRate("ghost", 30*time.Second) != 0 {
		t.Fatal("unknown tenant burn != 0")
	}
}

func TestSLOWindowExpiry(t *testing.T) {
	eng, _, tr := sloFixture()
	eng.At(0, func() { tr.JobAdmitted("acme", 5*time.Second) }) // bad at t=0
	eng.At(sim.Time(40*time.Second), func() {
		if got := tr.BurnRate("acme", 30*time.Second); got != 0 {
			t.Errorf("burn with only stale events = %v, want 0", got)
		}
		tr.JobAdmitted("acme", 2*time.Second) // fresh bad event
		if got := tr.BurnRate("acme", 30*time.Second); math.Abs(got-10) > 1e-12 {
			t.Errorf("fresh burn = %v, want 10 (1/1 bad over budget 0.1)", got)
		}
	})
	eng.Run()
}

func TestSLOQuantileTracksWaits(t *testing.T) {
	eng, _, tr := sloFixture()
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
}

// Each window opens one breach span when its burn crosses the alert and
// closes it once the bad events have left that window.
func TestSLOBreachSpansOpenAndClose(t *testing.T) {
	eng, tlog, tr := sloFixture()
	record := func(string, float64) {}

	eng.At(0, func() {
		// All-bad admissions: fraction 1.0, burn 10 ≥ alert 1.0 in every window.
		tr.JobAdmitted("acme", 10*time.Second)
		tr.JobAdmitted("acme", 10*time.Second)
		tr.sample(eng.Now(), record)
	})
	eng.At(sim.Time(5*time.Second), func() {
		// Re-sampling inside the breach must not open a second span.
		tr.sample(eng.Now(), record)
	})
	closeAt := map[string]sim.Time{}
	for _, w := range sloWindows {
		// One second past the window the events have expired → burn 0.
		at := sim.Time(w + time.Second)
		closeAt[w.String()] = at
		eng.At(at, func() { tr.sample(eng.Now(), record) })
	}
	eng.Run()

	if got := tr.Breaches("acme"); got != int64(len(sloWindows)) {
		t.Fatalf("breaches = %d, want %d (one per window)", got, len(sloWindows))
	}
	seen := map[string]bool{}
	for _, s := range tlog.Spans() {
		if s.Component != "slo" {
			continue
		}
		_, window, _ := strings.Cut(s.Name, " over ")
		want, ok := closeAt[window]
		if !ok || seen[window] {
			t.Fatalf("unexpected breach span %q", s.Name)
		}
		seen[window] = true
		if !s.Ended || s.End != want {
			t.Fatalf("breach span %q not closed at %s: ended=%v end=%s", s.Name, want, s.Ended, s.End)
		}
	}
	if len(seen) != len(sloWindows) {
		t.Fatalf("breach spans for windows %v, want all of %v", seen, sloWindows)
	}
}

func TestSLOSampleEmitsSeries(t *testing.T) {
	eng, _, tr := sloFixture()
	got := map[string]float64{}
	eng.At(0, func() {
		tr.JobAdmitted("acme", 5*time.Second)
		tr.sample(eng.Now(), func(name string, v float64) { got[name] = v })
	})
	eng.Run()

	for _, want := range []string{
		"slo_burn_rate{tenant=acme,window=30s}",
		"slo_burn_rate{tenant=acme,window=2m0s}",
		"slo_burn_rate{tenant=acme,window=10m0s}",
		"slo_queue_wait_p99_seconds{tenant=acme}",
		"slo_events_total{tenant=acme}",
		"slo_bad_events_total{tenant=acme}",
		"slo_breach_total{tenant=acme}",
	} {
		if _, ok := got[want]; !ok {
			t.Errorf("series %q not emitted; got %v", want, got)
		}
	}
	if got["slo_burn_rate{tenant=acme,window=30s}"] != 10 {
		t.Fatalf("burn series = %v, want 10", got["slo_burn_rate{tenant=acme,window=30s}"])
	}
}
