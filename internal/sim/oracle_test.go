package sim

import (
	"math/rand"
	"testing"
	"time"
)

// The engine's event queue is verified here against a brutally simple
// oracle: an unordered list popped by linear min-scan on (time, seq).
// Both queues are driven through the same byte script — same-instant
// bursts, far-future outliers, cancels, staged RunUntil segments — and
// must fire the same events at the same virtual instants in the same
// order.

// oracleQueue is the reference implementation. O(n) per pop, obviously
// correct, test-only.
type oracleQueue struct {
	now    Time
	seq    uint64
	events []*oracleEvent
}

type oracleEvent struct {
	at        Time
	seq       uint64
	id        int
	cancelled bool
}

func (o *oracleQueue) after(d time.Duration, id int) *oracleEvent {
	if d < 0 {
		d = 0
	}
	o.seq++
	e := &oracleEvent{at: o.now.Add(d), seq: o.seq, id: id}
	o.events = append(o.events, e)
	return e
}

func (o *oracleQueue) pending() int {
	n := 0
	for _, e := range o.events {
		if !e.cancelled {
			n++
		}
	}
	return n
}

// runUntil pops events in (at, seq) order through the deadline, firing ids.
func (o *oracleQueue) runUntil(deadline Time, fire func(id int, at Time)) {
	for {
		best := -1
		for i, e := range o.events {
			if e.cancelled {
				continue
			}
			if best < 0 || e.at < o.events[best].at ||
				(e.at == o.events[best].at && e.seq < o.events[best].seq) {
				best = i
			}
		}
		if best < 0 || o.events[best].at > deadline {
			return
		}
		e := o.events[best]
		o.events[best] = o.events[len(o.events)-1]
		o.events = o.events[:len(o.events)-1]
		o.now = e.at
		fire(e.id, e.at)
	}
}

type firing struct {
	id int
	at Time
}

// runOracleScript drives the engine and the oracle through one script and
// compares every observable: firing order, firing instants, pending counts
// after each advance, and the final clock.
func runOracleScript(t testing.TB, script []byte) {
	eng := NewEngine()
	var oracle oracleQueue

	var engLog, oraLog []firing
	engTimers := make(map[int]Timer)
	oraTimers := make(map[int]*oracleEvent)
	var liveIDs []int
	nextID := 0

	scheduleBoth := func(d time.Duration, cancellable bool) {
		id := nextID
		nextID++
		if cancellable {
			engTimers[id] = eng.AfterTimer(d, func() {
				engLog = append(engLog, firing{id, eng.Now()})
				delete(engTimers, id)
			})
			oraTimers[id] = oracle.after(d, id)
			liveIDs = append(liveIDs, id)
		} else {
			eng.After(d, func() { engLog = append(engLog, firing{id, eng.Now()}) })
			oracle.after(d, id)
		}
	}
	advanceBoth := func(d time.Duration) {
		deadline := eng.Now().Add(d)
		eng.RunUntil(deadline)
		oracle.runUntil(deadline, func(id int, at Time) {
			oraLog = append(oraLog, firing{id, at})
			delete(oraTimers, id)
		})
	}

	i := 0
	next := func() byte {
		if i >= len(script) {
			return 0
		}
		b := script[i]
		i++
		return b
	}
	for i < len(script) {
		switch op := next(); op % 6 {
		case 0: // same-instant burst
			k := int(next())%32 + 1
			d := time.Duration(next()) * time.Millisecond
			for j := 0; j < k; j++ {
				scheduleBoth(d, j%2 == 0)
			}
		case 1: // short, sub-ms granularity
			scheduleBoth(time.Duration(next())*37*time.Microsecond, false)
		case 2: // far-future outlier
			scheduleBoth(time.Duration(next())*3*time.Second, true)
		case 3: // mid-range cancellable
			scheduleBoth(time.Duration(next())*700*time.Microsecond, true)
		case 4: // cancel a random live timer (in both)
			if len(liveIDs) > 0 {
				j := int(next()) % len(liveIDs)
				id := liveIDs[j]
				liveIDs[j] = liveIDs[len(liveIDs)-1]
				liveIDs = liveIDs[:len(liveIDs)-1]
				if tm, ok := engTimers[id]; ok {
					tm.Stop()
					delete(engTimers, id)
				}
				if ev, ok := oraTimers[id]; ok {
					ev.cancelled = true
					delete(oraTimers, id)
				}
			}
		case 5: // advance time
			advanceBoth(time.Duration(next()) * 13 * time.Millisecond)
			if eng.Pending() != oracle.pending() {
				t.Fatalf("pending diverged mid-run: engine %d, oracle %d", eng.Pending(), oracle.pending())
			}
		}
	}
	// Drain both completely.
	advanceBoth(500 * time.Hour)

	if len(engLog) != len(oraLog) {
		t.Fatalf("fired %d events, oracle fired %d", len(engLog), len(oraLog))
	}
	for j := range engLog {
		if engLog[j] != oraLog[j] {
			t.Fatalf("firing %d diverged: engine %+v, oracle %+v", j, engLog[j], oraLog[j])
		}
	}
	if eng.Pending() != 0 || oracle.pending() != 0 {
		t.Fatalf("undrained: engine %d pending, oracle %d", eng.Pending(), oracle.pending())
	}
	if got, want := eng.Now(), oracle.now; len(engLog) > 0 && got != want {
		t.Fatalf("final clock diverged: engine %v, oracle %v", got, want)
	}
}

// TestEngineMatchesOracle runs randomized scripts over many seeds.
func TestEngineMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 400)
		rng.Read(script)
		runOracleScript(t, script)
	}
}

// TestEngineOracleAdversarial pins the shapes randomized scripts might
// miss: everything at one instant, cancel-everything, and a spill whose
// span is poisoned by one far outlier (the refill skew case).
func TestEngineOracleAdversarial(t *testing.T) {
	t.Run("single-instant-burst", func(t *testing.T) {
		// op 0 with k=32, d=5ms, repeatedly; then advance.
		var s []byte
		for j := 0; j < 20; j++ {
			s = append(s, 0, 255, 5)
		}
		s = append(s, 5, 255)
		runOracleScript(t, s)
	})
	t.Run("cancel-heavy", func(t *testing.T) {
		var s []byte
		for j := 0; j < 30; j++ {
			s = append(s, 3, byte(j*7), 4, byte(j*13))
		}
		s = append(s, 5, 255)
		runOracleScript(t, s)
	})
	t.Run("skewed-far-spill", func(t *testing.T) {
		var s []byte
		s = append(s, 2, 255) // one outlier ~12.7min out
		for j := 0; j < 40; j++ {
			s = append(s, 1, byte(j*11))
		}
		s = append(s, 5, 255, 5, 255, 5, 255)
		runOracleScript(t, s)
	})
}

// FuzzEngineOrder lets the fuzzer hunt for schedules where the engine's
// queue and the oracle disagree.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 255, 5, 5, 255})
	f.Add([]byte{2, 200, 1, 3, 5, 100, 4, 0, 5, 255})
	f.Add([]byte{3, 9, 3, 9, 4, 1, 0, 31, 0, 5, 40})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			return
		}
		runOracleScript(t, script)
	})
}
