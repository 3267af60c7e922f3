// Package flight is the cluster flight recorder: it samples a running
// simulation on the virtual clock at a fixed interval and keeps the
// results in ring-buffered time-series — metrics-registry counters (raw
// values plus per-second rates for monotonic *_total counters), live
// cluster gauges registered by the embedding code (queue depths, container
// occupancy, shuffle bytes in flight, cache residency), and a per-tenant
// SLO tracker with multi-window burn rates.
//
// Because sampling rides the same deterministic event loop as the
// simulation itself and every probe is read-only with respect to cluster
// state, turning the recorder on cannot change job outputs: runs with the
// recorder on and off stay byte-identical, and two identical runs produce
// identical series dumps.
//
// The recorded data is surfaced three ways: Prometheus text-format
// exposition (WritePrometheus), Chrome-trace counter lanes next to the
// span tree (CounterSeries + trace.WriteChromeTraceCounters), and a
// self-contained HTML dashboard (WriteDashboard).
package flight

import (
	"sort"
	"strings"
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

	lastAt       sim.Time
	lastCounters map[string]int64
	lastFired    uint64
}

// New builds a recorder over the engine, registry and (optional) trace
// log, which receives the SLO tracker's breach spans. Call AddGauge to
// register cluster probes, then Start.
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
		r.slo = NewSLOTracker(eng, tlog, cfg.SLO)
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
	r.lastCounters = r.reg.Counters()
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

// lastValue reads a series' most recent sample, reporting whether the
// series exists and has one.
func (r *Recorder) lastValue(name string) (float64, bool) {
	s, ok := r.series[name]
	if !ok {
		return 0, false
	}
	last, ok := s.Last()
	return last.Value, ok
}

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

// rateName derives the per-second rate series key from a counter key:
// "x_total{a=b}" → "x_total:rate{a=b}". The colon keeps the derived name
// legal in Prometheus exposition (recording-rule convention) while making
// collisions with real registry counters impossible.
func rateName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i] + ":rate" + key[i:]
	}
	return key + ":rate"
}

// isMonotonic reports whether a series key names a counter that only ever
// goes up, and therefore has a meaningful rate.
func isMonotonic(key string) bool {
	name := key
	if i := strings.IndexByte(key, '{'); i >= 0 {
		name = key[:i]
	}
	return strings.HasSuffix(name, "_total")
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
		v := counters[name]
		r.record(at, name, float64(v))
		if isMonotonic(name) && dt > 0 {
			r.record(at, rateName(name), float64(v-r.lastCounters[name])/dt)
		}
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
		r.slo.sample(at, func(name string, v float64) { r.record(at, name, v) })
	}

	r.samples++
	r.lastAt = at
	r.lastCounters = counters
	r.lastFired = fired
}

// CounterSeries exports every recorded series as Chrome-trace counter
// lanes for trace.WriteChromeTraceCounters, sorted by name.
func (r *Recorder) CounterSeries() []trace.CounterSeries {
	out := make([]trace.CounterSeries, 0, len(r.series))
	for _, name := range r.SeriesNames() {
		s := r.series[name]
		cs := trace.CounterSeries{Name: name}
		for _, smp := range s.Samples() {
			cs.Samples = append(cs.Samples, trace.CounterSample{At: smp.At, Value: smp.Value})
		}
		out = append(out, cs)
	}
	return out
}
