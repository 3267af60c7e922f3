package flight

import (
	"fmt"
	"sort"
	"time"

	"mrapid/internal/metrics"
	"mrapid/internal/sim"
	"mrapid/internal/trace"
)

// SLOConfig defines one service-level objective applied uniformly to every
// tenant: an admission queue-wait target. Over-target waits burn the
// MissBudget error budget.
type SLOConfig struct {
	// TargetWait is the per-job queue-wait objective: an admission whose
	// wait exceeds it is a bad event. Zero disables the tracker.
	TargetWait time.Duration
}

func (c SLOConfig) enabled() bool { return c.TargetWait > 0 }

// MissBudget is the tolerated bad-event fraction: 10% of admissions may
// miss the wait target.
const MissBudget = 0.1

// burnAlert is the burn rate that opens a breach span: 1.0 consumes exactly
// the budget.
const burnAlert = 1.0

// sloWindows are the virtual-time lookback windows burn rates are computed
// over, shortest first.
var sloWindows = [...]time.Duration{30 * time.Second, 2 * time.Minute, 10 * time.Minute}

// SLOWindows returns the burn-rate windows, shortest first.
func SLOWindows() []time.Duration { return append([]time.Duration(nil), sloWindows[:]...) }

// sloEvent is one budget-relevant occurrence: a job admission, bad when the
// wait blew the target.
type sloEvent struct {
	at  sim.Time
	bad bool
}

// tenantSLO is one tenant's rolling SLO state.
type tenantSLO struct {
	name   string
	events []sloEvent // time-ordered, pruned to the longest window
	waits  *metrics.Histogram

	total, bad int64 // lifetime

	breachOpen map[time.Duration]trace.SpanID
	breaches   int64

	// Series names are label-escaped once on first sample, not per tick.
	nP99, nEvents, nBad, nBreach string
	nBurn                        map[time.Duration]string
}

// seriesNames builds the tenant's recorder series keys once.
func (ts *tenantSLO) seriesNames() {
	if ts.nP99 != "" {
		return
	}
	ts.nP99 = metrics.With("slo_queue_wait_p99_seconds", "tenant", ts.name)
	ts.nEvents = metrics.With("slo_events_total", "tenant", ts.name)
	ts.nBad = metrics.With("slo_bad_events_total", "tenant", ts.name)
	ts.nBreach = metrics.With("slo_breach_total", "tenant", ts.name)
	ts.nBurn = make(map[time.Duration]string, len(sloWindows))
	for _, w := range sloWindows {
		ts.nBurn[w] = metrics.With("slo_burn_rate", "tenant", ts.name, "window", w.String())
	}
}

// SLOTracker watches per-tenant queue waits and turns them into
// multi-window burn rates. It implements core.AdmissionObserver
// structurally (JobAdmitted / JobCompleted), so a JobServer feeds it
// directly.
type SLOTracker struct {
	cfg     SLOConfig
	eng     *sim.Engine
	tlog    *trace.Log
	tenants map[string]*tenantSLO
}

// NewSLOTracker builds a tracker; the trace log may be nil (breach spans
// are then skipped).
func NewSLOTracker(eng *sim.Engine, tlog *trace.Log, cfg SLOConfig) *SLOTracker {
	return &SLOTracker{
		cfg:     cfg,
		eng:     eng,
		tlog:    tlog,
		tenants: make(map[string]*tenantSLO),
	}
}

// Config reports the tracker's configuration.
func (t *SLOTracker) Config() SLOConfig { return t.cfg }

func (t *SLOTracker) tenant(name string) *tenantSLO {
	ts := t.tenants[name]
	if ts == nil {
		ts = &tenantSLO{
			name: name,
			waits: &metrics.Histogram{
				Buckets: metrics.DefaultDurationBuckets,
				Counts:  make([]int64, len(metrics.DefaultDurationBuckets)+1),
			},
			breachOpen: make(map[time.Duration]trace.SpanID),
		}
		t.tenants[name] = ts
	}
	return ts
}

// JobAdmitted records one admission: the wait feeds the tenant's histogram
// and burns budget when it exceeds the target.
func (t *SLOTracker) JobAdmitted(tenant string, wait time.Duration) {
	ts := t.tenant(tenant)
	v := wait.Seconds()
	ts.waits.Counts[sort.SearchFloat64s(ts.waits.Buckets, v)]++
	ts.waits.Sum += v
	ts.waits.Count++
	bad := wait > t.cfg.TargetWait
	ts.events = append(ts.events, sloEvent{at: t.eng.Now(), bad: bad})
	ts.total++
	if bad {
		ts.bad++
	}
}

// JobCompleted is not an SLO event: no job has a deadline to miss, and
// counting completions as good events would halve every burn rate.
func (t *SLOTracker) JobCompleted(string, bool) {}

// Tenants lists tracked tenant names, sorted.
func (t *SLOTracker) Tenants() []string {
	names := make([]string, 0, len(t.tenants))
	for n := range t.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WaitHistogram returns the tenant's queue-wait histogram (nil if the
// tenant is unknown).
func (t *SLOTracker) WaitHistogram(tenant string) *metrics.Histogram {
	ts := t.tenants[tenant]
	if ts == nil {
		return nil
	}
	return ts.waits
}

// P99Wait is the tenant's bucket-interpolated p99 queue wait in seconds.
func (t *SLOTracker) P99Wait(tenant string) float64 {
	return t.WaitHistogram(tenant).Quantile(0.99)
}

// Events reports the tenant's lifetime (total, bad) event counts.
func (t *SLOTracker) Events(tenant string) (total, bad int64) {
	ts := t.tenants[tenant]
	if ts == nil {
		return 0, 0
	}
	return ts.total, ts.bad
}

// Breaches reports how many times the tenant's burn rate crossed the alert
// threshold (across all windows).
func (t *SLOTracker) Breaches(tenant string) int64 {
	ts := t.tenants[tenant]
	if ts == nil {
		return 0
	}
	return ts.breaches
}

// BurnRate computes the tenant's burn rate over the trailing window ending
// now: the bad-event fraction inside the window divided by MissBudget. 1.0
// means the budget is being consumed exactly as provisioned; above 1.0 the
// tenant is on course to exhaust it early. No events in the window → 0.
func (t *SLOTracker) BurnRate(tenant string, window time.Duration) float64 {
	ts := t.tenants[tenant]
	if ts == nil {
		return 0
	}
	return ts.burn(t.eng.Now(), window)
}

func (ts *tenantSLO) burn(now sim.Time, window time.Duration) float64 {
	cutoff := now.Add(-window)
	var total, bad int64
	for i := len(ts.events) - 1; i >= 0; i-- {
		e := ts.events[i]
		if e.at < cutoff {
			break
		}
		total++
		if e.bad {
			bad++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(bad) / float64(total) / MissBudget
}

// prune drops events older than the longest window.
func (ts *tenantSLO) prune(now sim.Time, maxWindow time.Duration) {
	cutoff := now.Add(-maxWindow)
	i := 0
	for i < len(ts.events) && ts.events[i].at < cutoff {
		i++
	}
	if i > 0 {
		ts.events = append(ts.events[:0], ts.events[i:]...)
	}
}

// sample emits the tracker's series for one recorder tick and drives the
// breach state machine: a window whose burn crosses the alert threshold
// opens an "slo" span (visible in the Perfetto lanes and counted in
// slo_breach_total); dropping back below closes it.
func (t *SLOTracker) sample(at sim.Time, record func(name string, v float64)) {
	for _, name := range t.Tenants() {
		ts := t.tenants[name]
		ts.seriesNames()
		record(ts.nP99, ts.waits.Quantile(0.99))
		record(ts.nEvents, float64(ts.total))
		record(ts.nBad, float64(ts.bad))
		for _, w := range sloWindows {
			burn := ts.burn(at, w)
			record(ts.nBurn[w], burn)
			open, isOpen := ts.breachOpen[w]
			switch {
			case burn >= burnAlert && !isOpen:
				ts.breaches++
				if t.tlog != nil {
					wl := w.String()
					ts.breachOpen[w] = t.tlog.StartSpan(0, "slo",
						fmt.Sprintf("%s burn>%.3g over %s", name, burnAlert, wl), "",
						trace.A("tenant", name),
						trace.A("window", wl),
						trace.A("burn", fmt.Sprintf("%.3f", burn)))
				} else {
					ts.breachOpen[w] = 0
				}
			case burn < burnAlert && isOpen:
				if t.tlog != nil {
					t.tlog.EndSpan(open, trace.A("burn", fmt.Sprintf("%.3f", burn)))
				}
				delete(ts.breachOpen, w)
			}
		}
		record(ts.nBreach, float64(ts.breaches))
		ts.prune(at, sloWindows[len(sloWindows)-1])
	}
}
