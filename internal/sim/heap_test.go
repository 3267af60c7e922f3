package sim

import (
	"testing"
	"time"
)

// TestFiringFromCallbackPanics: Run and Step share one guard, so neither can
// nest a second timeline inside a callback of the other.
func TestFiringFromCallbackPanics(t *testing.T) {
	cases := []struct {
		name         string
		outer, inner func(*Engine)
	}{
		{"Step inside Run", func(e *Engine) { e.Run() }, func(e *Engine) { e.Step() }},
		{"Run inside Step", func(e *Engine) { e.Step() }, func(e *Engine) { e.Run() }},
		{"Step inside Step", func(e *Engine) { e.Step() }, func(e *Engine) { e.Step() }},
	}
	for _, c := range cases {
		e := NewEngine()
		nested := false
		e.After(time.Second, func() { nested = true })
		var recovered any
		e.After(0, func() {
			defer func() { recovered = recover() }()
			c.inner(e)
		})
		c.outer(e)
		if recovered == nil {
			t.Errorf("%s: no panic (nested event fired: %v)", c.name, nested)
		}
		// The guard is released on the way out: the engine still runs.
		if e.Run(); !nested {
			t.Errorf("%s: engine did not resume after the panic", c.name)
		}
	}
}

// TestWarmEngineAllocatesNothing: once the slab, the free list and the heap
// have grown to the working set, scheduling, firing and cancelling are
// allocation-free.
func TestWarmEngineAllocatesNothing(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 4096; i++ {
		e.After(time.Duration(i)*time.Microsecond, fn)
	}
	e.Run()
	cases := []struct {
		name string
		op   func()
	}{
		{"schedule and fire", func() {
			e.After(time.Millisecond, fn)
			e.Step()
		}},
		{"AfterTimer and Stop churn", func() {
			w := e.AfterTimer(80*time.Millisecond, fn)
			e.After(time.Millisecond, fn)
			w.Stop()
			e.Run()
		}},
		{"far-future insert", func() {
			e.After(1000*time.Hour, fn)
			e.After(time.Millisecond, fn)
			e.RunUntil(e.Now().Add(time.Millisecond))
		}},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(200, c.op); allocs != 0 {
			t.Errorf("%s: %v allocations per run, want 0", c.name, allocs)
		}
	}
	if e.Run(); e.Pending() != 0 || len(e.queue) != 0 {
		t.Errorf("undrained: %d pending, %d refs queued", e.Pending(), len(e.queue))
	}
}

// TestStoppedTimersLeaveOnlyDeadRefs: 10 000 armed-then-stopped timers
// before, among and after 10 live events count for nothing in Pending, never
// fire, and are gone from the heap once the run is over.
func TestStoppedTimersLeaveOnlyDeadRefs(t *testing.T) {
	e := NewEngine()
	var oracle oracleQueue
	var got, want []firing

	var timers []Timer
	for j := 0; j < 10000; j++ {
		d := time.Duration(j%1200) * time.Millisecond
		timers = append(timers, e.AfterTimer(d, func() { t.Error("a stopped timer fired") }))
		oracle.after(d, -1).cancelled = true
		if j%1000 == 500 {
			id, d := j/1000, time.Duration(j/1000*100+50)*time.Millisecond
			e.After(d, func() { got = append(got, firing{id, e.Now()}) })
			oracle.after(d, id)
		}
	}
	if e.Pending() != 10010 {
		t.Fatalf("armed: Pending() = %d, want 10010", e.Pending())
	}
	for _, tm := range timers {
		tm.Stop()
	}
	if e.Pending() != 10 || len(e.queue) != 10010 {
		t.Fatalf("stopped: Pending() = %d (want 10), %d refs queued (want 10010)", e.Pending(), len(e.queue))
	}

	e.Run()
	oracle.runUntil(Infinity, func(id int, at Time) { want = append(want, firing{id, at}) })
	if len(got) != len(want) {
		t.Fatalf("fired %d events, oracle fired %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("firing %d diverged: engine %+v, oracle %+v", i, got[i], want[i])
		}
	}
	if e.Now() != oracle.now {
		t.Errorf("final clock %v, oracle %v", e.Now(), oracle.now)
	}
	if e.Pending() != 0 || len(e.queue) != 0 {
		t.Errorf("undrained: %d pending, %d refs queued", e.Pending(), len(e.queue))
	}
}
