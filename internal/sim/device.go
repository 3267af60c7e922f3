package sim

import (
	"fmt"
	"time"
)

// Device models a rate-limited, FIFO-serialized resource such as a disk or a
// network interface. Requests are served one at a time at a fixed byte rate;
// concurrent users therefore see their transfers stretched exactly as they
// would under fair sharing of the same aggregate bandwidth, while keeping the
// event schedule deterministic.
type Device struct {
	eng  *Engine
	name string
	rate float64 // bytes per second
	// free is the earliest instant at which the device can begin a new
	// transfer; it advances monotonically as requests queue behind one
	// another.
	free Time

	// busy accumulates total busy time for utilization reporting.
	busy time.Duration
}

// NewDevice creates a device served at rate bytes per second.
func NewDevice(eng *Engine, name string, rate float64) *Device {
	if rate <= 0 {
		panic(fmt.Sprintf("sim: device %q needs a positive rate, got %v", name, rate))
	}
	return &Device{eng: eng, name: name, rate: rate}
}

// Name returns the device's diagnostic name.
func (d *Device) Name() string { return d.name }

// Rate returns the service rate in bytes per second.
func (d *Device) Rate() float64 { return d.rate }

// TransferTime reports how long moving n bytes takes at the device's rate,
// ignoring queueing.
func (d *Device) TransferTime(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / d.rate * float64(time.Second))
}

// Use enqueues a transfer of n bytes and invokes done when it completes.
// Zero or negative sizes complete after any already-queued work drains, with
// no service time of their own.
func (d *Device) Use(n int64, done func()) {
	if done == nil {
		panic("sim: Device.Use called with nil completion")
	}
	start := d.eng.Now()
	if d.free > start {
		start = d.free
	}
	dur := d.TransferTime(n)
	end := start.Add(dur)
	d.free = end
	d.busy += dur
	d.eng.At(end, done)
}

// BusyTime reports the cumulative time the device has spent (or is committed
// to spend) serving transfers.
func (d *Device) BusyTime() time.Duration { return d.busy }

// Backlog reports how long a new zero-size request would wait before being
// served, i.e. the current queue depth in time.
func (d *Device) Backlog() time.Duration {
	if d.free <= d.eng.Now() {
		return 0
	}
	return d.free.Sub(d.eng.Now())
}

// Join is the completion of several device transfers started together: done
// fires inside the event that completes the last of them, or — when Arm
// finds that none was started — as its own event at the current instant.
// A Join that is never armed never fires, which is how a caller abandons
// one it has already charged devices through.
type Join struct {
	eng     *Engine
	pending int
	armed   bool
	done    func()
	step    func() // j.complete, bound once so every Use shares one closure
}

// NewJoin prepares a join that will invoke done.
func NewJoin(eng *Engine, done func()) *Join {
	if done == nil {
		panic("sim: NewJoin called with nil completion")
	}
	j := &Join{eng: eng, done: done}
	j.step = j.complete
	return j
}

// Use enqueues n bytes on d as one of the joined transfers.
func (j *Join) Use(d *Device, n int64) {
	j.pending++
	d.Use(n, j.step)
}

// Arm declares that every transfer has been started.
func (j *Join) Arm() {
	j.armed = true
	if j.pending == 0 {
		j.eng.After(0, j.done)
	}
}

func (j *Join) complete() {
	j.pending--
	if j.pending == 0 && j.armed {
		j.done()
	}
}

// Semaphore is a counting semaphore with FIFO waiters, used to model
// exclusive resources such as CPU cores on a node.
type Semaphore struct {
	eng     *Engine
	name    string
	total   int
	avail   int
	waiters []waiter
}

type waiter struct {
	n  int
	fn func()
}

// NewSemaphore creates a semaphore with the given number of permits.
func NewSemaphore(eng *Engine, name string, permits int) *Semaphore {
	if permits <= 0 {
		panic(fmt.Sprintf("sim: semaphore %q needs positive permits, got %d", name, permits))
	}
	return &Semaphore{eng: eng, name: name, total: permits, avail: permits}
}

// Total returns the permit capacity.
func (s *Semaphore) Total() int { return s.total }

// Available returns the number of currently free permits.
func (s *Semaphore) Available() int { return s.avail }

// Waiting returns the number of queued acquirers.
func (s *Semaphore) Waiting() int { return len(s.waiters) }

// Acquire requests n permits and schedules fn for the instant they are all
// granted (possibly immediately, in the current event). Requests are granted
// strictly in FIFO order; a large request at the head blocks later small
// ones, which models YARN's per-node allocation queue faithfully enough for
// our purposes.
func (s *Semaphore) Acquire(n int, fn func()) {
	if n <= 0 || n > s.total {
		panic(fmt.Sprintf("sim: semaphore %q cannot acquire %d of %d permits", s.name, n, s.total))
	}
	if fn == nil {
		panic("sim: Semaphore.Acquire called with nil callback")
	}
	s.waiters = append(s.waiters, waiter{n: n, fn: fn})
	s.dispatch()
}

// TryAcquire immediately takes n permits if available and reports success.
// It does not queue.
func (s *Semaphore) TryAcquire(n int) bool {
	if n <= 0 || n > s.total {
		return false
	}
	if len(s.waiters) > 0 || s.avail < n {
		return false
	}
	s.avail -= n
	return true
}

// Release returns n permits and wakes queued acquirers in order.
func (s *Semaphore) Release(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("sim: semaphore %q release of %d", s.name, n))
	}
	s.avail += n
	if s.avail > s.total {
		panic(fmt.Sprintf("sim: semaphore %q over-released (%d > %d)", s.name, s.avail, s.total))
	}
	s.dispatch()
}

func (s *Semaphore) dispatch() {
	for len(s.waiters) > 0 && s.waiters[0].n <= s.avail {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.avail -= w.n
		// Fire through the engine so the callback runs as its own event at
		// the current instant, keeping stack depth bounded and ordering
		// explicit.
		s.eng.After(0, w.fn)
	}
}
