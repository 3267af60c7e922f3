// Package metrics provides a labeled counter/gauge/histogram registry used
// by the simulation components and the CLI tools to report protocol and
// I/O activity (heartbeat counts, bytes moved, locality hit rates,
// allocation-latency distributions) alongside job timings.
//
// A sample site names its series where it samples:
//
//	reg.CounterHandle("yarn_allocations_total", "locality", loc, "sched", s).Inc()
//
// The registry builds the series key in a stack buffer and finds its cell
// under the registry mutex without allocating; a cell is created on the
// series' first sample. The returned handle may also be kept and sampled
// lock-free, as long as the registry it came from is the one to record to.
package metrics

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultDurationBuckets are the upper bounds (in seconds) of every
// histogram whose family has no Define. They span the latencies this
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

// histCell is the storage behind one histogram series. Its buckets are
// fixed when the series is created, so observation needs just the cell's
// own mutex — never the registry's.
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
	hists    map[string]*histCell
	buckets  map[string][]float64 // by histogram family; see Define
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*counterCell),
		hists:    make(map[string]*histCell),
		buckets:  make(map[string][]float64),
	}
}

// keyBuf sizes the stack buffer a series key is built in; a longer key
// spills to the heap and is still correct.
const keyBuf = 256

// With encodes a metric name plus label key/value pairs into a single
// series key: name{k1=v1,k2=v2} with the pairs sorted, so the same label
// set always yields the same series. Pass kvs as alternating key, value.
// The structural characters `=`, `,`, `{`, `}` and the escape `\` are
// escaped inside label values, so a tenant named "a=b" yields a distinct
// series from a tenant "a" with some other label "b" — and ParseSeries can
// recover the exact labels.
func With(name string, kvs ...string) string {
	if len(kvs) == 0 {
		return name
	}
	var buf [keyBuf]byte
	return string(appendKey(buf[:0], name, kvs))
}

// appendKey appends With(name, kvs...) to dst. Each "k=escaped(v)" pair is
// first written past the key as scratch and sorted as a whole string (so
// keys "a" and "a-b" order as "a-b=…,a=…"); the sorted pairs are then
// moved into place.
func appendKey(dst []byte, name string, kvs []string) []byte {
	dst = append(dst, name...)
	if len(kvs) == 0 {
		return dst
	}
	var spanBuf [8][2]int // up to eight pairs sort on the stack
	spans := spanBuf[:0]
	scratch := len(dst)
	for i := 0; i+1 < len(kvs); i += 2 {
		lo := len(dst)
		dst = append(dst, kvs[i]...)
		dst = append(dst, '=')
		dst = appendEscaped(dst, kvs[i+1])
		spans = append(spans, [2]int{lo, len(dst)})
		for j := len(spans) - 1; j > 0; j-- {
			a, b := spans[j-1], spans[j]
			if bytes.Compare(dst[a[0]:a[1]], dst[b[0]:b[1]]) <= 0 {
				break
			}
			spans[j-1], spans[j] = b, a
		}
	}
	out := len(dst)
	dst = append(dst, '{')
	for i, sp := range spans {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, dst[sp[0]:sp[1]]...)
	}
	dst = append(dst, '}')
	return dst[:scratch+copy(dst[scratch:], dst[out:])]
}

// appendEscaped appends v with the characters that delimit a series key
// backslash-escaped.
func appendEscaped(dst []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\', '=', ',', '{', '}':
			dst = append(dst, '\\')
		}
		dst = append(dst, v[i])
	}
	return dst
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
// no label block returns (key, nil). This is the inverse of With; an
// exporter (the flight recorder's Prometheus text format) uses it to
// re-render labels in its own quoting conventions.
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

// counterCell finds the cell behind a series key, creating it on a miss.
// The lookup converts key without allocating; only a new series copies it.
func (r *Registry) counterCell(key []byte) *counterCell {
	r.mu.Lock()
	c := r.counters[string(key)]
	if c == nil {
		c = new(counterCell)
		r.counters[string(key)] = c
	}
	r.mu.Unlock()
	return c
}

// histCell finds the cell behind a histogram series key, creating it on a
// miss with its family's buckets (Define) or the default duration buckets.
func (r *Registry) histCell(key []byte) *histCell {
	r.mu.Lock()
	hc := r.hists[string(key)]
	if hc == nil {
		family := key
		if i := bytes.IndexByte(key, '{'); i >= 0 {
			family = key[:i]
		}
		b, ok := r.buckets[string(family)]
		if !ok {
			b = DefaultDurationBuckets
		}
		hc = &histCell{buckets: b, counts: make([]int64, len(b)+1)}
		r.hists[string(key)] = hc
	}
	r.mu.Unlock()
	return hc
}

// Counter is a pre-resolved handle on one counter series. The zero value
// (and any handle from a nil registry) is a no-op.
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

// CounterHandle returns the counter series With(name, kvs...), creating it
// on first use. Labels are alternating key, value. The lookup allocates
// nothing once the series exists. A nil registry returns a no-op handle.
func (r *Registry) CounterHandle(name string, kvs ...string) Counter {
	if r == nil {
		return Counter{}
	}
	var buf [keyBuf]byte
	return Counter{c: r.counterCell(appendKey(buf[:0], name, kvs))}
}

// GaugeHandle returns the gauge series With(name, kvs...), creating it on
// first use. A nil registry returns a no-op handle.
func (r *Registry) GaugeHandle(name string, kvs ...string) Gauge {
	if r == nil {
		return Gauge{}
	}
	var buf [keyBuf]byte
	return Gauge{c: r.counterCell(appendKey(buf[:0], name, kvs))}
}

// HistogramHandle returns the histogram series With(name, kvs...),
// creating it on first use with the buckets Define declared for name, or
// the default duration buckets. Observe takes only the series' own mutex.
// A nil registry returns a no-op handle.
func (r *Registry) HistogramHandle(name string, kvs ...string) Observer {
	if r == nil {
		return Observer{}
	}
	var buf [keyBuf]byte
	return Observer{h: r.histCell(appendKey(buf[:0], name, kvs))}
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

// Define declares the bucket upper bounds (ascending) of the histogram
// family name — every series of that name, whatever its labels — for
// series created after it; e.g. byte sizes, where the default duration
// buckets are wrong. The registry keeps buckets; do not modify it.
func (r *Registry) Define(name string, buckets []float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buckets[name] = buckets
	r.mu.Unlock()
}

// Names returns all counter names in sorted order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters))
	for k := range r.counters {
		names = append(names, k)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// Counters returns a snapshot of every counter's value, keyed by series.
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
