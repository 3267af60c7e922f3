// Package sim implements a deterministic discrete-event simulation engine.
//
// All components of the simulated Hadoop cluster (HDFS, YARN, the MapReduce
// runtime, and the MRapid extensions) advance a shared virtual clock by
// scheduling events on an Engine. Events fire in (time, sequence) order, so
// two events scheduled for the same instant fire in the order they were
// scheduled, making every simulation run bit-reproducible.
//
// The event queue is a binary heap of by-value refs, because the traffic it
// carries is small: the busiest workload the repository measures
// (benchmark/'s cluster_stream: 1100 jobs on 256 nodes) fires 214 671 events
// with at most 1 404 pending, the other four at most 3 451 with 180 pending.
// A sift is ten levels at worst, a schedule-pop-fire cycle ≈ 80 ns, and the
// queue 1–2 % of a pass's host time (EXPERIMENTS.md "Engine event queue").
// Callbacks live by value in a slab with a free list, so steady-state
// scheduling allocates nothing, and a cancelled Timer gives its slot and
// callback back at once; only its 24-byte ref stays queued, to be dropped
// when it reaches the top.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, measured as a duration since the start of
// the simulation. It is kept as a distinct type so call sites cannot confuse
// virtual instants with wall-clock instants or with durations.
type Time time.Duration

// Infinity is a virtual instant later than any reachable event time.
const Infinity = Time(math.MaxInt64)

// Seconds reports t as a floating-point number of virtual seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Add returns t shifted forward by d. Negative results are clamped to zero:
// an event can never be scheduled before the start of the simulation.
func (t Time) Add(d time.Duration) Time {
	r := t + Time(d)
	if r < 0 {
		return 0
	}
	return r
}

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// String formats t with millisecond precision, e.g. "12.345s".
func (t Time) String() string {
	return fmt.Sprintf("%.3fs", t.Seconds())
}

// A slot holds one scheduled callback in the engine's slab. The generation
// counter increments every time the slot is released (fired or cancelled),
// so a stale queue reference or Timer from a previous occupancy can never
// touch the slot's new tenant.
type slot struct {
	fn  func()
	gen uint32
}

// A ref is the queued, by-value form of an event: its firing key plus the
// slab coordinates of its callback. Refs are what the queue shuffles
// around — 24 bytes, no pointers.
type ref struct {
	at  Time
	seq uint64
	idx int32
	gen uint32
}

func refLess(a, b ref) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use: all simulated "parallelism" is expressed as interleaved
// events on the one virtual timeline.
type Engine struct {
	now     Time
	seq     uint64
	fired   uint64
	running bool

	live     int // scheduled and not yet fired or cancelled
	maxDepth int

	slab []slot
	free []int32

	// queue is a binary min-heap on (at, seq). A ref whose generation no
	// longer matches its slot belongs to a cancelled timer and is dropped
	// when it surfaces.
	queue []ref
}

// NewEngine returns an engine whose clock starts at virtual time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have fired so far; useful in tests and as a
// runaway guard.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of live scheduled events. Cancelled timers
// release their slot immediately and are not counted, so this is a true
// backlog figure (the flight recorder's engine_pending_events lane).
func (e *Engine) Pending() int { return e.live }

// MaxPending reports the most live events ever scheduled at once, the
// engine's high-water mark: 1 404 on the largest measured workload, which
// is what sizes the queue (refs of cancelled timers add to its length until
// they surface, not to this count). benchmark/'s sim.max_pending reads it.
func (e *Engine) MaxPending() int { return e.maxDepth }

// alloc claims a slab slot for fn and returns its coordinates.
func (e *Engine) alloc(fn func()) (int32, uint32) {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		s := &e.slab[idx]
		s.fn = fn
		return idx, s.gen
	}
	e.slab = append(e.slab, slot{fn: fn})
	return int32(len(e.slab) - 1), 0
}

// release frees a slot, dropping its callback so cancelled work is
// collectable immediately, and bumps the generation to invalidate any
// outstanding refs or Timers.
func (e *Engine) release(idx int32) {
	s := &e.slab[idx]
	s.fn = nil
	s.gen++
	e.free = append(e.free, idx)
	e.live--
}

// schedule claims a slot, assigns the next sequence number and queues the
// ref.
func (e *Engine) schedule(at Time, fn func()) (int32, uint32) {
	e.seq++
	idx, gen := e.alloc(fn)
	e.push(ref{at: at, seq: e.seq, idx: idx, gen: gen})
	e.live++
	if e.live > e.maxDepth {
		e.maxDepth = e.live
	}
	return idx, gen
}

// push adds r to the heap, sifting it up from the last leaf. The sifts are
// written out because container/heap moves elements through interface
// values, which would box and allocate a ref per operation.
func (e *Engine) push(r ref) {
	q := append(e.queue, r)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !refLess(r, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = r
	e.queue = q
}

// pop removes the heap's root: the last leaf takes its place and sifts
// down.
func (e *Engine) pop() {
	q := e.queue
	n := len(q) - 1
	r := q[n]
	q = q[:n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && refLess(q[right], q[child]) {
			child = right
		}
		if !refLess(q[child], r) {
			break
		}
		q[i] = q[child]
		i = child
	}
	if n > 0 {
		q[i] = r
	}
	e.queue = q
}

// peekLive returns the earliest live ref without removing it, discarding
// cancelled refs as it encounters them.
func (e *Engine) peekLive() (ref, bool) {
	for len(e.queue) > 0 {
		r := e.queue[0]
		if e.slab[r.idx].gen == r.gen {
			return r, true
		}
		e.pop()
	}
	return ref{}, false
}

// At schedules fn to fire at virtual instant t. Scheduling into the past
// (t < Now) panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (%v < %v)", t, e.now))
	}
	e.schedule(t, fn)
}

// After schedules fn to fire d from now. Negative d fires "now" (after all
// events already scheduled for the current instant).
func (e *Engine) After(d time.Duration, fn func()) {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	if d < 0 {
		d = 0
	}
	e.schedule(e.now.Add(d), fn)
}

// Timer is a handle to a scheduled event that can be cancelled before it
// fires. The zero Timer is valid and inert.
type Timer struct {
	eng *Engine
	idx int32
	gen uint32
}

// Stop cancels the timer, releasing its slot — and its callback — at once.
// It is safe to call multiple times, and after the event has fired (in
// which case it has no effect).
func (t Timer) Stop() {
	e := t.eng
	if e == nil {
		return
	}
	if s := &e.slab[t.idx]; s.gen == t.gen && s.fn != nil {
		e.release(t.idx)
	}
}

// AfterTimer schedules fn to fire d from now and returns a Timer that can
// cancel it.
func (e *Engine) AfterTimer(d time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: AfterTimer called with nil callback")
	}
	if d < 0 {
		d = 0
	}
	idx, gen := e.schedule(e.now.Add(d), fn)
	return Timer{eng: e, idx: idx, gen: gen}
}

// Ticker repeatedly fires a callback at a fixed period until stopped.
type Ticker struct {
	stopped bool
	timer   Timer
}

// Stop halts the ticker; the callback will not fire again, and the pending
// tick's slot and closure are released immediately.
func (t *Ticker) Stop() {
	if t == nil || t.stopped {
		return
	}
	t.stopped = true
	t.timer.Stop()
}

// Every schedules fn to fire every period, with the first firing one full
// period from now (matching heartbeat semantics: a heartbeat is sent after
// the interval elapses, not immediately). The period must be positive.
func (e *Engine) Every(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	if fn == nil {
		panic("sim: Every called with nil callback")
	}
	t := &Ticker{}
	var tick func()
	tick = func() {
		fn()
		if t.stopped {
			return
		}
		t.timer = e.AfterTimer(period, tick)
	}
	t.timer = e.AfterTimer(period, tick)
	return t
}

// Run fires events in order until the queue is empty, and returns the final
// virtual time.
func (e *Engine) Run() Time {
	return e.RunUntil(Infinity)
}

// enter marks the engine as firing. Firing from inside a callback would nest
// one timeline in another, so it panics; leave undoes the mark.
func (e *Engine) enter() {
	if e.running {
		panic("sim: Run or Step re-entered from within an event callback")
	}
	e.running = true
}

func (e *Engine) leave() { e.running = false }

// fire pops the earliest live event and runs it at its instant, unless the
// queue is empty or that event is due after the deadline.
func (e *Engine) fire(deadline Time) bool {
	r, ok := e.peekLive()
	if !ok || r.at > deadline {
		return false
	}
	e.pop()
	fn := e.slab[r.idx].fn
	e.release(r.idx)
	e.now = r.at
	e.fired++
	fn()
	return true
}

// RunUntil fires events in order until the queue is empty or the next event
// would fire after the deadline, and returns the current virtual time. Events
// exactly at the deadline fire. The clock stays at the last fired event; it
// does not jump to the deadline, so work can resume afterwards.
func (e *Engine) RunUntil(deadline Time) Time {
	e.enter()
	defer e.leave()
	for e.fire(deadline) {
	}
	return e.now
}

// Step fires the single next pending event (skipping cancelled ones) and
// reports whether an event fired.
func (e *Engine) Step() bool {
	e.enter()
	defer e.leave()
	return e.fire(Infinity)
}
