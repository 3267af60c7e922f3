package metrics

import (
	"sort"
	"strings"
	"testing"
)

func TestCountersAddIncSetGet(t *testing.T) {
	r := New()
	r.CounterHandle("a").Inc()
	r.CounterHandle("a").Add(4)
	r.GaugeHandle("b").Set(10)
	if r.Get("a") != 5 || r.Get("b") != 10 || r.Get("missing") != 0 {
		t.Fatalf("counters wrong: a=%d b=%d", r.Get("a"), r.Get("b"))
	}
	if n := len(r.Counters()); n != 2 {
		t.Fatalf("%d counters, want 2", n)
	}
}

func TestNamesSorted(t *testing.T) {
	r := New()
	r.CounterHandle("zulu").Inc()
	r.CounterHandle("alpha").Inc()
	r.CounterHandle("mike").Inc()
	names := r.Names()
	if len(names) != 3 || names[0] != "alpha" || names[1] != "mike" || names[2] != "zulu" {
		t.Fatalf("Names = %v", names)
	}
}

func TestDump(t *testing.T) {
	r := New()
	r.GaugeHandle("reads").Set(3)
	r.GaugeHandle("writes").Set(1)
	var b strings.Builder
	if err := r.Dump(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "reads") || !strings.Contains(out, "writes") {
		t.Fatalf("Dump = %q", out)
	}
	if strings.Index(out, "reads") > strings.Index(out, "writes") {
		t.Fatal("dump not sorted")
	}
}

// TestHandleLookupAllocatesNothing is what the per-component handle caches
// used to buy: a sample site that names its labelled series each time it
// samples must not allocate once the series exists, nor on a nil registry.
func TestHandleLookupAllocatesNothing(t *testing.T) {
	node, tenant := "node-07", "tenant-01"
	for _, r := range []*Registry{New(), nil} {
		r.CounterHandle("launched_total", "node", node).Inc()
		r.GaugeHandle("registered", "node", node).Set(1)
		r.HistogramHandle("wait_seconds", "tenant", tenant, "mode", "dplus").Observe(1)
		allocs := testing.AllocsPerRun(100, func() {
			r.CounterHandle("launched_total", "node", node).Inc()
			r.GaugeHandle("registered", "node", node).Set(2)
			r.HistogramHandle("wait_seconds", "tenant", tenant, "mode", "dplus").Observe(0.5)
		})
		if allocs != 0 {
			t.Fatalf("registry %p: %v allocs per labelled sample, want 0", r, allocs)
		}
	}
}

func TestDefineSetsFamilyBuckets(t *testing.T) {
	r := New()
	r.Define("bytes", []float64{10, 100})
	r.HistogramHandle("bytes", "transport", "disk").Observe(50)
	r.HistogramHandle("seconds").Observe(50)
	hs := r.Histograms()
	if h := hs[With("bytes", "transport", "disk")]; len(h.Buckets) != 2 || h.Counts[1] != 1 {
		t.Fatalf("labelled series of a defined family = %+v", h)
	}
	if h := hs["seconds"]; len(h.Buckets) != len(DefaultDurationBuckets) {
		t.Fatalf("undefined family = %+v", h)
	}
}

func TestWithEscapesLabelValues(t *testing.T) {
	// Regression: a tenant literally named "a=b" must not alias the series
	// of a different label set that renders to the same bytes.
	k1 := With("jobs", "tenant", "a=b")
	k2 := With("jobs", "tenant", "a", "extra", "b")
	if k1 == k2 {
		t.Fatalf("series alias: %q", k1)
	}
	name, labels := ParseSeries(k1)
	if name != "jobs" || len(labels) != 1 || labels[0].Key != "tenant" || labels[0].Value != "a=b" {
		t.Fatalf("ParseSeries(%q) = %q %v", k1, name, labels)
	}
	// The pairs sort as whole "k=v" strings, not by key: '-' sorts before
	// '=', so key "a-b" comes first.
	if got, want := With("m", "a", "x=y", "a-b", "1,2"), `m{a-b=1\,2,a=x\=y}`; got != want {
		t.Fatalf("With = %s, want %s", got, want)
	}
}

// withJoinSort is the reference definition of a series key: escape each
// value, sort the joined "k=v" pairs, join them. With must match it byte
// for byte, because every exported series name is built by With.
func withJoinSort(name string, kvs ...string) string {
	if len(kvs) == 0 {
		return name
	}
	pairs := []string{}
	for i := 0; i+1 < len(kvs); i += 2 {
		v := strings.NewReplacer(`\`, `\\`, `=`, `\=`, `,`, `\,`, `{`, `\{`, `}`, `\}`).Replace(kvs[i+1])
		pairs = append(pairs, kvs[i]+"="+v)
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

func FuzzWithMatchesJoinSort(f *testing.F) {
	f.Add("m", "a", "x=y", "a-b", "1,2", "", "")
	f.Add("jobs", "tenant", `a\{b}`, "mode", "dplus", "z", "")
	f.Fuzz(func(t *testing.T, name, k1, v1, k2, v2, k3, v3 string) {
		kvs := []string{k1, v1, k2, v2, k3, v3}
		for n := 0; n <= len(kvs); n++ {
			if got, want := With(name, kvs[:n]...), withJoinSort(name, kvs[:n]...); got != want {
				t.Fatalf("With(%q, %q) = %q, want %q", name, kvs[:n], got, want)
			}
		}
	})
}

func TestParseSeriesRoundTrip(t *testing.T) {
	cases := [][]string{
		nil,
		{"tenant", "t0"},
		{"tenant", "a=b", "mode", "d+,u+"},
		{"k", `back\slash`},
		{"k", "curly{brace}"},
		{"k", ""},
	}
	for _, kvs := range cases {
		key := With("m", kvs...)
		name, labels := ParseSeries(key)
		if name != "m" {
			t.Fatalf("name %q from %q", name, key)
		}
		if len(labels) != len(kvs)/2 {
			t.Fatalf("labels %v from %q", labels, key)
		}
		got := map[string]string{}
		for _, l := range labels {
			got[l.Key] = l.Value
		}
		for i := 0; i+1 < len(kvs); i += 2 {
			if got[kvs[i]] != kvs[i+1] {
				t.Fatalf("label %s = %q, want %q (key %q)", kvs[i], got[kvs[i]], kvs[i+1], key)
			}
		}
	}
	if name, labels := ParseSeries("bare"); name != "bare" || labels != nil {
		t.Fatalf("bare series parsed as %q %v", name, labels)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := New()
	r.Define("lat", []float64{1, 2, 4, 8})
	lat := r.HistogramHandle("lat")
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 5, 7} {
		lat.Observe(v)
	}
	h := r.Histograms()["lat"]
	// 8 observations: bucket counts are ≤1:1, ≤2:2, ≤4:3, ≤8:2.
	if got := h.Quantile(0.5); got < 2 || got > 4 {
		t.Fatalf("p50 = %v, want within (2,4]", got)
	}
	if got := h.Quantile(1); got != 8 {
		t.Fatalf("p100 = %v, want 8", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("p0 = %v, want 0 (interpolates to bucket floor)", got)
	}
	// Monotone in p.
	prev := -1.0
	for p := 0.0; p <= 1.0; p += 0.05 {
		q := h.Quantile(p)
		if q < prev {
			t.Fatalf("Quantile not monotone: p=%v gives %v after %v", p, q, prev)
		}
		prev = q
	}
	// Overflow bucket clamps to the last finite bound.
	lat.Observe(100)
	lat.Observe(200)
	lat.Observe(300)
	h = r.Histograms()["lat"]
	if got := h.Quantile(0.99); got != 8 {
		t.Fatalf("overflow p99 = %v, want clamp to 8", got)
	}
	var empty *Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("nil histogram quantile = %v", got)
	}
}
