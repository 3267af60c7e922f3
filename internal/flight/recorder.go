// Package flight is the cluster flight recorder: it samples a running
// simulation on the virtual clock at a fixed interval and keeps the
// results in ring-buffered time-series — metrics-registry counters, live
// cluster gauges registered by the embedding code (queue depths, container
// occupancy, shuffle bytes in flight, cache residency), and a per-tenant
// SLO tracker's p99 queue wait and event counts.
//
// Because sampling rides the same deterministic event loop as the
// simulation itself and every probe is read-only with respect to cluster
// state, turning the recorder on cannot change job outputs: runs with the
// recorder on and off stay byte-identical, and two identical runs produce
// identical series dumps.
//
// The recorded data has one output, the Prometheus text-format dump
// (WritePrometheus): every retained sample carries its virtual timestamp,
// so a reader derives rates from it.
package flight

import (
	"sort"
	"time"

	"mrapid/internal/metrics"
	"mrapid/internal/sim"
	"mrapid/internal/trace"
)

// Config sizes a Recorder.
type Config struct {
	// Interval is the virtual-clock sampling period. Zero means 250ms.
	Interval time.Duration

	// SLO configures the per-tenant SLO tracker; the zero value (no
	// target) disables it.
	SLO SLOConfig
}

// GaugeFunc probes live cluster state at each tick. It must only read:
// gauge callbacks run between simulation events and anything they mutate
// would break the recorder's byte-identity guarantee. Implementations call
// sample once per gauge series, with metrics.With-style names.
type GaugeFunc func(sample func(name string, v float64))

// Recorder samples one simulation into ring-buffered time-series.
type Recorder struct {
	eng *sim.Engine
	reg *metrics.Registry
	cfg Config

	series map[string]*Series
	gauges []GaugeFunc
	slo    *SLOTracker

	ticker  *sim.Ticker
	started bool
	stopped bool
	samples int64

	lastAt    sim.Time
	lastFired uint64
}

// New builds a recorder over the engine and registry. Call AddGauge to
// register cluster probes, then Start. The recorder writes nothing into
// the span tree, so tlog is never read; the parameter stays for the
// callers outside this module.
func New(eng *sim.Engine, reg *metrics.Registry, tlog *trace.Log, cfg Config) *Recorder {
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	r := &Recorder{
		eng:    eng,
		reg:    reg,
		cfg:    cfg,
		series: make(map[string]*Series),
	}
	if cfg.SLO.enabled() {
		r.slo = newSLOTracker(cfg.SLO)
	}
	return r
}

// AddGauge registers a read-only cluster probe, called once per tick.
func (r *Recorder) AddGauge(fn GaugeFunc) { r.gauges = append(r.gauges, fn) }

// SLO returns the per-tenant SLO tracker, or nil when no target is set.
// The tracker satisfies core.AdmissionObserver, so it plugs straight into
// a JobServer's Observer field.
func (r *Recorder) SLO() *SLOTracker { return r.slo }

// Interval reports the effective sampling period.
func (r *Recorder) Interval() time.Duration { return r.cfg.Interval }

// Start begins sampling: one tick every Interval of virtual time until
// Stop. Starting twice is a no-op.
func (r *Recorder) Start() {
	if r.started {
		return
	}
	r.started = true
	r.lastAt = r.eng.Now()
	r.lastFired = r.eng.Fired()
	r.ticker = r.eng.Every(r.cfg.Interval, r.tick)
}

// Stop takes a final sample and cancels the ticker. The recorder must be
// stopped when the workload completes — a live ticker keeps the event
// queue non-empty, so an un-stopped recorder would run the engine to its
// horizon. Stopping twice is a no-op.
func (r *Recorder) Stop() {
	if !r.started || r.stopped {
		return
	}
	r.stopped = true
	r.ticker.Stop()
	if r.eng.Now() > r.lastAt {
		r.tick()
	}
}

// StopIfRunning is Stop, but safe on a nil recorder — embedding code can
// call it unconditionally whether or not recording was enabled.
func (r *Recorder) StopIfRunning() {
	if r == nil {
		return
	}
	r.Stop()
}

// Samples reports how many ticks have been recorded.
func (r *Recorder) Samples() int64 { return r.samples }

// Series returns one series by full key, or nil.
func (r *Recorder) Series(name string) *Series { return r.series[name] }

// SeriesNames returns every recorded series key, sorted.
func (r *Recorder) SeriesNames() []string {
	names := make([]string, 0, len(r.series))
	for n := range r.series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Evicted sums ring evictions across all series.
func (r *Recorder) Evicted() int64 {
	var n int64
	for _, s := range r.series {
		n += s.Evicted()
	}
	return n
}

// record appends one sample, creating the series on first use.
func (r *Recorder) record(at sim.Time, name string, v float64) {
	s := r.series[name]
	if s == nil {
		s = &Series{Name: name}
		r.series[name] = s
	}
	s.add(at, v)
}

// tick is one sample on the virtual clock.
func (r *Recorder) tick() {
	at := r.eng.Now()
	dt := at.Sub(r.lastAt).Seconds()

	counters := r.reg.Counters()
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.record(at, name, float64(counters[name]))
	}

	for _, fn := range r.gauges {
		fn(func(name string, v float64) { r.record(at, name, v) })
	}

	// Engine lane: both are functions of the deterministic event schedule,
	// so they belong in the virtual-clock series.
	fired := r.eng.Fired()
	if dt > 0 {
		r.record(at, "engine_events_per_virtual_sec", float64(fired-r.lastFired)/dt)
	}
	r.record(at, "engine_pending_events", float64(r.eng.Pending()))

	if r.slo != nil {
		r.slo.sample(func(name string, v float64) { r.record(at, name, v) })
	}

	r.samples++
	r.lastAt = at
	r.lastFired = fired
}
