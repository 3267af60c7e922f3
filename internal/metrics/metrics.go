// Package metrics provides a labeled counter/gauge/histogram registry used
// by the simulation components and the CLI tools to report protocol and
// I/O activity (heartbeat counts, bytes moved, locality hit rates,
// allocation-latency distributions) alongside job timings.
//
// Two access styles share the same underlying cells:
//
//   - String-keyed calls (Inc, Add, Set, Observe) resolve the series name in
//     a map under the registry mutex on every sample. Convenient for cold
//     paths and tests.
//   - Pre-resolved handles (CounterHandle, GaugeHandle, HistogramHandle)
//     bind a label set once at setup and return a cell pointer; each sample
//     is then a single atomic add with no lock, no map lookup and no label
//     escaping. Hot paths — per-heartbeat, per-container, per-record — use
//     handles.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultDurationBuckets are the upper bounds (in seconds) used by Observe
// for histograms without an explicit Define. They span the latencies this
// simulator cares about: sub-millisecond RPCs up to minute-scale jobs.
var DefaultDurationBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Histogram is a fixed-bucket histogram snapshot. Counts[i] holds the
// number of observations <= Buckets[i]; Counts[len(Buckets)] holds the
// overflow. Counts are per-bucket, not cumulative.
type Histogram struct {
	Buckets []float64 `json:"buckets"`
	Counts  []int64   `json:"counts"`
	Sum     float64   `json:"sum"`
	Count   int64     `json:"count"`
}

// Mean returns Sum/Count, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the p-quantile (0 ≤ p ≤ 1) by locating the bucket that
// contains the target rank and interpolating linearly inside it, the way
// Prometheus's histogram_quantile does. Values in the overflow bucket cannot
// be interpolated (no upper bound), so a rank landing there reports the last
// finite bound — a lower bound on the true quantile. Returns 0 with no
// observations.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil || h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			if i >= len(h.Buckets) {
				return h.Buckets[len(h.Buckets)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.Buckets[i-1]
			}
			hi := h.Buckets[i]
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	return h.Buckets[len(h.Buckets)-1]
}

// counterCell is the storage behind one counter/gauge series. Handles point
// straight at it, so samples are lock-free atomics.
type counterCell struct {
	v atomic.Int64
}

// histCell is the storage behind one histogram series. Buckets are replaced
// only while the histogram is empty (Define), so observation needs just the
// cell's own mutex — never the registry's.
type histCell struct {
	mu      sync.Mutex
	buckets []float64
	counts  []int64
	sum     float64
	count   int64
}

func (hc *histCell) observe(v float64) {
	hc.mu.Lock()
	i := sort.SearchFloat64s(hc.buckets, v)
	hc.counts[i]++
	hc.sum += v
	hc.count++
	hc.mu.Unlock()
}

func (hc *histCell) snapshot() *Histogram {
	hc.mu.Lock()
	h := &Histogram{
		Buckets: append([]float64(nil), hc.buckets...),
		Counts:  append([]int64(nil), hc.counts...),
		Sum:     hc.sum,
		Count:   hc.count,
	}
	hc.mu.Unlock()
	return h
}

// Registry holds named counters and histograms. The zero value is not
// usable; call New. A nil *Registry is a valid "disabled" registry: every
// method is a no-op (reads return zero values, handle constructors return
// no-op handles), so components can carry an optional registry without
// guards. Registries are safe for concurrent use: a reader may snapshot one
// while the simulation that owns it is still recording.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*counterCell
	order    []string
	hists    map[string]*histCell
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*counterCell),
		hists:    make(map[string]*histCell),
	}
}

// With encodes a metric name plus label key/value pairs into a single
// series key: name{k1=v1,k2=v2} with keys sorted, so the same label set
// always yields the same series. Pass kvs as alternating key, value. The
// structural characters `=`, `,`, `{`, `}` and the escape `\` are escaped
// inside label values, so a tenant named "a=b" yields a distinct series
// from a tenant "a" with some other label "b" — and ParseSeries can recover
// the exact labels.
func With(name string, kvs ...string) string {
	if len(kvs) == 0 {
		return name
	}
	n := len(kvs) / 2
	pairs := make([]string, 0, n)
	for i := 0; i+1 < len(kvs); i += 2 {
		pairs = append(pairs, kvs[i]+"="+escapeLabel(kvs[i+1]))
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// labelEscaper guards the characters that delimit a series key.
var labelEscaper = strings.NewReplacer(
	`\`, `\\`, `=`, `\=`, `,`, `\,`, `{`, `\{`, `}`, `\}`,
)

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\=,{}`) {
		return v
	}
	return labelEscaper.Replace(v)
}

func unescapeLabel(v string) string {
	if !strings.Contains(v, `\`) {
		return v
	}
	var b strings.Builder
	b.Grow(len(v))
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' && i+1 < len(v) {
			i++
		}
		b.WriteByte(v[i])
	}
	return b.String()
}

// Label is one decoded key/value pair of a series key.
type Label struct {
	Key   string
	Value string
}

// ParseSeries decodes a series key produced by With back into the bare
// metric name and its labels (values unescaped, in key order). A key with
// no label block returns (key, nil). This is the inverse of With; exporters
// (Prometheus text format, the flight recorder's dashboard) use it to
// re-render labels in their own quoting conventions.
func ParseSeries(key string) (name string, labels []Label) {
	open := strings.IndexByte(key, '{')
	if open < 0 || !strings.HasSuffix(key, "}") {
		return key, nil
	}
	name = key[:open]
	body := key[open+1 : len(key)-1]
	if body == "" {
		return name, nil
	}
	// Split on unescaped commas, then each pair on its first unescaped '='.
	var pairs []string
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			i++
		case ',':
			pairs = append(pairs, body[start:i])
			start = i + 1
		}
	}
	pairs = append(pairs, body[start:])
	for _, p := range pairs {
		eq := -1
		for i := 0; i < len(p); i++ {
			if p[i] == '\\' {
				i++
				continue
			}
			if p[i] == '=' {
				eq = i
				break
			}
		}
		if eq < 0 {
			labels = append(labels, Label{Key: unescapeLabel(p)})
			continue
		}
		labels = append(labels, Label{Key: p[:eq], Value: unescapeLabel(p[eq+1:])})
	}
	return name, labels
}

// counterCellFor resolves (creating on first use) the cell behind a series.
func (r *Registry) counterCellFor(name string) *counterCell {
	r.mu.Lock()
	c, ok := r.counters[name]
	if !ok {
		c = new(counterCell)
		r.counters[name] = c
		r.order = append(r.order, name)
	}
	r.mu.Unlock()
	return c
}

// histCellFor resolves (creating with the default duration buckets on first
// use) the cell behind a histogram series.
func (r *Registry) histCellFor(name string) *histCell {
	r.mu.Lock()
	hc, ok := r.hists[name]
	if !ok {
		hc = &histCell{
			buckets: DefaultDurationBuckets,
			counts:  make([]int64, len(DefaultDurationBuckets)+1),
		}
		r.hists[name] = hc
	}
	r.mu.Unlock()
	return hc
}

// Counter is a pre-resolved handle on one counter series. The zero value
// (and any handle from a nil registry) is a no-op. Copying is cheap; bind
// once at setup and sample lock-free ever after.
type Counter struct{ c *counterCell }

// Add increments the bound series by delta.
func (c Counter) Add(delta int64) {
	if c.c != nil {
		c.c.v.Add(delta)
	}
}

// Inc increments the bound series by one.
func (c Counter) Inc() {
	if c.c != nil {
		c.c.v.Add(1)
	}
}

// Value reads the bound series (zero for a no-op handle).
func (c Counter) Value() int64 {
	if c.c == nil {
		return 0
	}
	return c.c.v.Load()
}

// Gauge is a pre-resolved handle on one gauge series (a counter cell with
// overwrite semantics). The zero value is a no-op.
type Gauge struct{ c *counterCell }

// Set overwrites the bound series.
func (g Gauge) Set(v int64) {
	if g.c != nil {
		g.c.v.Store(v)
	}
}

// Add adjusts the bound series by delta (useful for +1/-1 occupancy gauges).
func (g Gauge) Add(delta int64) {
	if g.c != nil {
		g.c.v.Add(delta)
	}
}

// Value reads the bound series (zero for a no-op handle).
func (g Gauge) Value() int64 {
	if g.c == nil {
		return 0
	}
	return g.c.v.Load()
}

// Observer is a pre-resolved handle on one histogram series. The zero value
// is a no-op.
type Observer struct{ h *histCell }

// Observe records one value into the bound histogram.
func (o Observer) Observe(v float64) {
	if o.h != nil {
		o.h.observe(v)
	}
}

// CounterHandle resolves a counter series once and returns a lock-free
// handle. Labels are passed as alternating key, value (as for With) and are
// escaped and sorted here, at bind time — never again per sample. A nil
// registry returns a no-op handle.
func (r *Registry) CounterHandle(name string, kvs ...string) Counter {
	if r == nil {
		return Counter{}
	}
	return Counter{c: r.counterCellFor(With(name, kvs...))}
}

// GaugeHandle resolves a gauge series once and returns a lock-free handle.
// A nil registry returns a no-op handle.
func (r *Registry) GaugeHandle(name string, kvs ...string) Gauge {
	if r == nil {
		return Gauge{}
	}
	return Gauge{c: r.counterCellFor(With(name, kvs...))}
}

// HistogramHandle resolves a histogram series once and returns a handle
// whose Observe takes only the cell's own mutex. The histogram is created
// with the default duration buckets if it does not exist; Define beforehand
// (or before the first observation) to choose others. A nil registry
// returns a no-op handle.
func (r *Registry) HistogramHandle(name string, kvs ...string) Observer {
	if r == nil {
		return Observer{}
	}
	return Observer{h: r.histCellFor(With(name, kvs...))}
}

// Add increments a counter by delta, creating it on first use.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.counterCellFor(name).v.Add(delta)
}

// Inc increments a counter by one.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Set overwrites a counter's value (gauge semantics).
func (r *Registry) Set(name string, value int64) {
	if r == nil {
		return
	}
	r.counterCellFor(name).v.Store(value)
}

// Get returns a counter's value (zero when absent).
func (r *Registry) Get(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Define creates (or re-buckets an empty) histogram with explicit upper
// bounds, for series where the default duration buckets are wrong — e.g.
// byte sizes. Bounds must be ascending. Handles bound before Define observe
// into the re-bucketed cell.
func (r *Registry) Define(name string, buckets []float64) {
	if r == nil {
		return
	}
	hc := r.histCellFor(name)
	hc.mu.Lock()
	if hc.count == 0 {
		hc.buckets = append([]float64(nil), buckets...)
		hc.counts = make([]int64, len(buckets)+1)
	}
	hc.mu.Unlock()
}

// Observe records a value into the named histogram, creating it with the
// default duration buckets on first use.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	r.histCellFor(name).observe(v)
}

// Names returns all counter names in sorted order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// Len reports the number of counters.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.counters)
}

// Reset zeroes every counter and histogram but keeps the names (and any
// outstanding handles — they keep pointing at the zeroed cells).
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, hc := range r.hists {
		hc.mu.Lock()
		for i := range hc.counts {
			hc.counts[i] = 0
		}
		hc.sum = 0
		hc.count = 0
		hc.mu.Unlock()
	}
}

// Counters returns a sorted-by-name snapshot of every counter.
func (r *Registry) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for k, c := range r.counters {
		out[k] = c.v.Load()
	}
	return out
}

// Histograms returns a deep-copied snapshot of every histogram.
func (r *Registry) Histograms() map[string]*Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	cells := make(map[string]*histCell, len(r.hists))
	for k, hc := range r.hists {
		cells[k] = hc
	}
	r.mu.Unlock()
	out := make(map[string]*Histogram, len(cells))
	for k, hc := range cells {
		out[k] = hc.snapshot()
	}
	return out
}

// Dump writes "name value" lines in sorted order: counters first, then a
// count/mean/max-bucket summary line per histogram.
func (r *Registry) Dump(w io.Writer) error {
	if r == nil {
		return nil
	}
	counters := r.Counters()
	hists := r.Histograms()
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "%-40s %d\n", name, counters[name]); err != nil {
			return err
		}
	}
	hnames := make([]string, 0, len(hists))
	for k := range hists {
		hnames = append(hnames, k)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := hists[name]
		if _, err := fmt.Fprintf(w, "%-40s count=%d sum=%.6g mean=%.6g\n",
			name, h.Count, h.Sum, h.Mean()); err != nil {
			return err
		}
	}
	return nil
}

// Ratio returns a/(a+b) as a percentage, guarding division by zero —
// convenient for locality hit rates.
func Ratio(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b) * 100
}
