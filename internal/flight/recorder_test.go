package flight

import (
	"bytes"
	"testing"
	"time"

	"mrapid/internal/metrics"
	"mrapid/internal/sim"
	"mrapid/internal/trace"
)

// driveWorkload schedules a tiny synthetic "workload" onto the engine: a
// counter incremented every 100ms for 5s and a gauge following the event
// count. Returns the recorder, stopped at the end of the run.
func driveWorkload(t *testing.T, cfg Config) (*Recorder, *metrics.Registry) {
	t.Helper()
	eng := sim.NewEngine()
	reg := metrics.New()
	tlog := trace.New(eng, 0)
	rec := New(eng, reg, tlog, cfg)

	var gaugeVal float64
	rec.AddGauge(func(sample func(string, float64)) {
		sample("test_gauge", gaugeVal)
		sample(metrics.With("test_labeled_gauge", "node", "node-01"), 2*gaugeVal)
	})

	work := eng.Every(100*time.Millisecond, func() {
		reg.CounterHandle("work_done_total").Inc()
		reg.CounterHandle("work_bytes").Add(10)
		gaugeVal++
	})
	var stopAt *sim.Ticker = work
	eng.At(sim.Time(5*time.Second), func() {
		stopAt.Stop()
		rec.Stop()
	})

	rec.Start()
	eng.Run()
	return rec, reg
}

func TestRecorderSamplesValuesAndRates(t *testing.T) {
	rec, _ := driveWorkload(t, Config{Interval: 250 * time.Millisecond})

	// 5s at 250ms → 20 ticks (the final Stop() sample coincides with the
	// tick already taken at t=5s, so no extra sample is added).
	if rec.Samples() < 19 || rec.Samples() > 21 {
		t.Fatalf("samples = %d, want ~20", rec.Samples())
	}

	v := rec.Series("work_done_total")
	if v == nil {
		t.Fatal("no value series for work_done_total")
	}
	// The stop event at t=5s was scheduled before the tickers' 5s firings,
	// so it wins the same-instant tie-break: the final sample sees the 49
	// increments from t=0.1s..4.9s.
	last, _ := v.Last()
	if last.Value != 49 {
		t.Fatalf("final work_done_total = %v, want 49", last.Value)
	}

	// The counter bumps every 100ms: a sample at the middle of the run
	// holds half the final count, so a reader of the timestamps can
	// derive the 10/s rate.
	s := v.Samples()
	mid := s[len(s)/2]
	if want := float64(mid.At) / float64(100*time.Millisecond); mid.Value < want-1 || mid.Value > want {
		t.Fatalf("work_done_total at %s = %v, want about %v", mid.At, mid.Value, want)
	}
	wb, _ := rec.Series("work_bytes").Last()
	if wb.Value != 490 {
		t.Fatalf("final work_bytes = %v, want 490", wb.Value)
	}

	// Gauges, including labeled ones.
	g, _ := rec.Series("test_gauge").Last()
	lg, _ := rec.Series("test_labeled_gauge{node=node-01}").Last()
	if g.Value == 0 || lg.Value != 2*g.Value {
		t.Fatalf("gauges: %v / %v", g.Value, lg.Value)
	}

	// Engine lane rides the deterministic series.
	if rec.Series("engine_pending_events") == nil || rec.Series("engine_events_per_virtual_sec") == nil {
		t.Fatal("missing engine lane series")
	}
}

func TestRecorderRingEviction(t *testing.T) {
	// 5s at 1ms is ~5000 ticks, past the 4096-sample ring.
	rec, _ := driveWorkload(t, Config{Interval: time.Millisecond})
	s := rec.Series("work_done_total")
	if s.Len() != ringCap {
		t.Fatalf("ring len = %d, want %d", s.Len(), ringCap)
	}
	if s.Evicted() == 0 || rec.Evicted() == 0 {
		t.Fatalf("expected evictions with a %d-slot ring over ~5000 ticks", ringCap)
	}
	// The retained window is the most recent samples, oldest-first.
	samples := s.Samples()
	for i := 1; i < len(samples); i++ {
		if samples[i].At <= samples[i-1].At {
			t.Fatalf("samples out of order: %v", samples)
		}
	}
	last, _ := s.Last()
	if last != samples[len(samples)-1] {
		t.Fatal("Last() disagrees with Samples()")
	}
}

func TestRecorderStopIsIdempotentAndDrainsQueue(t *testing.T) {
	eng := sim.NewEngine()
	reg := metrics.New()
	rec := New(eng, reg, nil, Config{Interval: 100 * time.Millisecond})
	rec.Start()
	eng.At(sim.Time(time.Second), func() {
		rec.Stop()
		rec.Stop()
	})
	end := eng.Run()
	// Without Stop the ticker would run forever; with it the queue drains
	// at the stop instant.
	if end != sim.Time(time.Second) {
		t.Fatalf("engine ran to %s, want 1s", end)
	}
}

func TestRecorderDeterministicPrometheusDump(t *testing.T) {
	var dumps [2]bytes.Buffer
	for i := range dumps {
		rec, _ := driveWorkload(t, Config{Interval: 250 * time.Millisecond})
		if err := rec.WritePrometheus(&dumps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(dumps[0].Bytes(), dumps[1].Bytes()) {
		t.Fatal("identical runs produced different Prometheus dumps")
	}
	if dumps[0].Len() == 0 {
		t.Fatal("empty dump")
	}
}
