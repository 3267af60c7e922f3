package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.After(3*time.Second, func() { got = append(got, 3) })
	e.After(1*time.Second, func() { got = append(got, 1) })
	e.After(2*time.Second, func() { got = append(got, 2) })
	end := e.Run()
	if end != Time(3*time.Second) {
		t.Fatalf("final time = %v, want 3s", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order = %v, want %v", got, want)
		}
	}
}

func TestSameInstantFiresInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want ascending", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.After(time.Second, func() {
		times = append(times, e.Now())
		e.After(2*time.Second, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != Time(time.Second) || times[1] != Time(3*time.Second) {
		t.Fatalf("times = %v, want [1s 3s]", times)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(0, func() {})
	})
	e.Run()
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(time.Second, func() {
		e.After(-5*time.Second, func() {
			fired = true
			if e.Now() != Time(time.Second) {
				t.Errorf("fired at %v, want 1s", e.Now())
			}
		})
	})
	e.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.After(1*time.Second, func() { fired = append(fired, 1) })
	e.After(2*time.Second, func() { fired = append(fired, 2) })
	e.After(3*time.Second, func() { fired = append(fired, 3) })
	now := e.RunUntil(Time(2 * time.Second))
	if now != Time(2*time.Second) {
		t.Fatalf("RunUntil returned %v, want 2s", now)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events 1 and 2 only", fired)
	}
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %v after Run, want all three", fired)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.AfterTimer(time.Second, func() { fired = true })
	tm.Stop()
	tm.Stop() // double stop is safe
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerFiresWhenNotStopped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.AfterTimer(time.Second, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("timer did not fire")
	}
}

func TestTickerPeriodAndStop(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var tk *Ticker
	tk = e.Every(time.Second, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3", len(ticks))
	}
	for i, at := range ticks {
		want := Time(time.Duration(i+1) * time.Second)
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	n := 0
	e.After(time.Second, func() { n++ })
	e.After(2*time.Second, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatalf("after first Step n=%d", n)
	}
	if !e.Step() || n != 2 {
		t.Fatalf("after second Step n=%d", n)
	}
	if e.Step() {
		t.Fatal("Step on empty queue reported an event")
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(2 * time.Second)
	if got := a.Add(3 * time.Second); got != Time(5*time.Second) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Add(-5 * time.Second); got != 0 {
		t.Errorf("Add negative clamped = %v, want 0", got)
	}
	if got := a.Sub(Time(500 * time.Millisecond)); got != 1500*time.Millisecond {
		t.Errorf("Sub = %v", got)
	}
	if a.Seconds() != 2.0 {
		t.Errorf("Seconds = %v", a.Seconds())
	}
	if a.String() != "2.000s" {
		t.Errorf("String = %q", a.String())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the engine ends at the max delay.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		var max time.Duration
		for _, d := range delays {
			dd := time.Duration(d) * time.Millisecond
			if dd > max {
				max = dd
			}
			e.After(dd, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		if len(delays) > 0 && e.Now() != Time(max) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: two engines fed the same schedule fire identically (determinism).
func TestQuickDeterminism(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		run := func() []Time {
			rng := rand.New(rand.NewSource(seed))
			e := NewEngine()
			var fired []Time
			for i := 0; i < int(n); i++ {
				e.After(time.Duration(rng.Intn(1000))*time.Millisecond, func() {
					fired = append(fired, e.Now())
				})
			}
			e.Run()
			return fired
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceSerializesTransfers(t *testing.T) {
	e := NewEngine()
	d := NewDevice(e, "disk", 100) // 100 B/s
	var done []Time
	d.Use(100, func() { done = append(done, e.Now()) }) // 1s
	d.Use(200, func() { done = append(done, e.Now()) }) // +2s
	e.Run()
	if len(done) != 2 {
		t.Fatalf("completions = %d, want 2", len(done))
	}
	if done[0] != Time(time.Second) || done[1] != Time(3*time.Second) {
		t.Fatalf("completion times = %v, want [1s 3s]", done)
	}
}

func TestDeviceZeroSizeWaitsForBacklog(t *testing.T) {
	e := NewEngine()
	d := NewDevice(e, "disk", 100)
	d.Use(100, func() {})
	var at Time
	d.Use(0, func() { at = e.Now() })
	e.Run()
	if at != Time(time.Second) {
		t.Fatalf("zero-size completed at %v, want 1s", at)
	}
}

func TestDeviceBacklogAndBusy(t *testing.T) {
	e := NewEngine()
	d := NewDevice(e, "disk", 100)
	d.Use(100, func() {})
	d.Use(100, func() {})
	if got := d.Backlog(); got != 2*time.Second {
		t.Fatalf("Backlog = %v, want 2s", got)
	}
	e.Run()
	if got := d.Backlog(); got != 0 {
		t.Fatalf("Backlog after drain = %v, want 0", got)
	}
	if got := d.BusyTime(); got != 2*time.Second {
		t.Fatalf("BusyTime = %v, want 2s", got)
	}
}

func TestJoinFiresWithTheLastTransfer(t *testing.T) {
	e := NewEngine()
	disk, nic := NewDevice(e, "disk", 100), NewDevice(e, "nic", 50)
	var at []Time
	j := NewJoin(e, func() { at = append(at, e.Now()) })
	j.Use(disk, 100) // 1s
	j.Use(nic, 100)  // 2s
	j.Arm()
	// Armed with nothing started: its own event at the current instant.
	NewJoin(e, func() { at = append(at, e.Now()) }).Arm()
	// Never armed: the transfer is charged, the completion never heard.
	NewJoin(e, func() { t.Error("an unarmed join fired") }).Use(disk, 100)
	if len(at) != 0 {
		t.Fatal("a join fired synchronously")
	}
	e.Run()
	if len(at) != 2 || at[0] != 0 || at[1] != Time(2*time.Second) {
		t.Fatalf("joins fired at %v, want [0s 2s]", at)
	}
	if disk.BusyTime() != 2*time.Second {
		t.Fatalf("disk busy %v, want 2s (both joins' transfers)", disk.BusyTime())
	}
}

func TestDeviceTransferTime(t *testing.T) {
	e := NewEngine()
	d := NewDevice(e, "net", 1e6)
	if got := d.TransferTime(5e5); got != 500*time.Millisecond {
		t.Fatalf("TransferTime = %v", got)
	}
	if got := d.TransferTime(0); got != 0 {
		t.Fatalf("TransferTime(0) = %v", got)
	}
	if got := d.TransferTime(-5); got != 0 {
		t.Fatalf("TransferTime(-5) = %v", got)
	}
}

func TestDeviceRejectsBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDevice with zero rate did not panic")
		}
	}()
	NewDevice(NewEngine(), "bad", 0)
}

func TestSemaphoreImmediateGrant(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "cores", 2)
	granted := false
	s.Acquire(2, func() { granted = true })
	e.Run()
	if !granted {
		t.Fatal("acquire within capacity was not granted")
	}
	if s.Available() != 0 {
		t.Fatalf("Available = %d, want 0", s.Available())
	}
}

func TestSemaphoreFIFOQueueing(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "cores", 1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		s.Acquire(1, func() {
			order = append(order, i)
			e.After(time.Second, func() { s.Release(1) })
		})
	}
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("grant order = %v, want [0 1 2]", order)
	}
	if e.Now() != Time(3*time.Second) {
		t.Fatalf("end time = %v, want 3s (serialized)", e.Now())
	}
}

func TestSemaphoreLargeRequestBlocksSmaller(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "cores", 2)
	var order []string
	s.Acquire(2, func() {
		order = append(order, "big")
		e.After(time.Second, func() { s.Release(2) })
	})
	s.Acquire(2, func() {
		order = append(order, "big2")
		e.After(time.Second, func() { s.Release(2) })
	})
	s.Acquire(1, func() { order = append(order, "small") })
	e.Run()
	if len(order) != 3 || order[0] != "big" || order[1] != "big2" || order[2] != "small" {
		t.Fatalf("order = %v, want big, big2, small (FIFO)", order)
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "cores", 2)
	if !s.TryAcquire(1) {
		t.Fatal("TryAcquire(1) failed with 2 free")
	}
	if s.TryAcquire(2) {
		t.Fatal("TryAcquire(2) succeeded with 1 free")
	}
	s.Release(1)
	if !s.TryAcquire(2) {
		t.Fatal("TryAcquire(2) failed after release")
	}
	if s.TryAcquire(0) {
		t.Fatal("TryAcquire(0) succeeded")
	}
}

func TestSemaphoreOverReleasePanics(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "cores", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	s.Release(1)
}

// Property: a semaphore never grants more permits than its capacity, for any
// interleaving of acquire sizes and hold times.
func TestQuickSemaphoreNeverOversubscribed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		capacity := 1 + rng.Intn(8)
		s := NewSemaphore(e, "cores", capacity)
		inUse, maxInUse := 0, 0
		for i := 0; i < 50; i++ {
			n := 1 + rng.Intn(capacity)
			hold := time.Duration(rng.Intn(500)) * time.Millisecond
			e.After(time.Duration(rng.Intn(2000))*time.Millisecond, func() {
				s.Acquire(n, func() {
					inUse += n
					if inUse > maxInUse {
						maxInUse = inUse
					}
					e.After(hold, func() {
						inUse -= n
						s.Release(n)
					})
				})
			})
		}
		e.Run()
		return maxInUse <= capacity && inUse == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
