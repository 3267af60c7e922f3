package flight

import (
	"sort"
	"time"

	"mrapid/internal/metrics"
)

// SLOConfig defines one service-level objective applied uniformly to every
// tenant: an admission queue-wait target.
type SLOConfig struct {
	// TargetWait is the per-job queue-wait objective: an admission whose
	// wait exceeds it is a bad event. Zero disables the tracker.
	TargetWait time.Duration
}

func (c SLOConfig) enabled() bool { return c.TargetWait > 0 }

// tenantSLO is one tenant's SLO state.
type tenantSLO struct {
	name       string
	waits      *metrics.Histogram
	total, bad int64

	// Series names are label-escaped once on first sample, not per tick.
	nP99, nEvents, nBad string
}

// seriesNames builds the tenant's recorder series keys once.
func (ts *tenantSLO) seriesNames() {
	if ts.nP99 != "" {
		return
	}
	ts.nP99 = metrics.With("slo_queue_wait_p99_seconds", "tenant", ts.name)
	ts.nEvents = metrics.With("slo_events_total", "tenant", ts.name)
	ts.nBad = metrics.With("slo_bad_events_total", "tenant", ts.name)
}

// SLOTracker keeps each tenant's queue-wait histogram and counts its
// admissions against the wait target. It implements core.AdmissionObserver
// structurally (JobAdmitted / JobCompleted), so a JobServer feeds it
// directly.
type SLOTracker struct {
	cfg     SLOConfig
	tenants map[string]*tenantSLO
}

func newSLOTracker(cfg SLOConfig) *SLOTracker {
	return &SLOTracker{cfg: cfg, tenants: make(map[string]*tenantSLO)}
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
		}
		t.tenants[name] = ts
	}
	return ts
}

// JobAdmitted records one admission: the wait feeds the tenant's histogram
// and counts as bad when it exceeds the target.
func (t *SLOTracker) JobAdmitted(tenant string, wait time.Duration) {
	ts := t.tenant(tenant)
	v := wait.Seconds()
	ts.waits.Counts[sort.SearchFloat64s(ts.waits.Buckets, v)]++
	ts.waits.Sum += v
	ts.waits.Count++
	ts.total++
	if wait > t.cfg.TargetWait {
		ts.bad++
	}
}

// JobCompleted is not an SLO event: no job has a deadline to miss, and
// counting completions as good events would halve every bad fraction.
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

// sample emits the tracker's series for one recorder tick.
func (t *SLOTracker) sample(record func(name string, v float64)) {
	for _, name := range t.Tenants() {
		ts := t.tenants[name]
		ts.seriesNames()
		record(ts.nP99, ts.waits.Quantile(0.99))
		record(ts.nEvents, float64(ts.total))
		record(ts.nBad, float64(ts.bad))
	}
}
