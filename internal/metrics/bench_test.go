package metrics

import "testing"

// The *Lookup and BareName benchmarks resolve the series at every sample,
// as the components do: build the key in a stack buffer, then one map
// lookup under the registry mutex. The *Handle benchmarks keep the handle
// and pay a bare atomic (or the histogram's own mutex) per sample.

func BenchmarkCounterLookupInc(b *testing.B) {
	r := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.CounterHandle("containers_launched_total", "node", "node07").Inc()
	}
}

func BenchmarkCounterHandleInc(b *testing.B) {
	r := New()
	h := r.CounterHandle("containers_launched_total", "node", "node07")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Inc()
	}
}

func BenchmarkCounterBareNameInc(b *testing.B) {
	// No labels: isolates the map-lookup + mutex cost from the key build.
	r := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.CounterHandle("heartbeats_total").Inc()
	}
}

func BenchmarkGaugeHandleSet(b *testing.B) {
	r := New()
	g := r.GaugeHandle("pending_events")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
}

func BenchmarkObserveLookup(b *testing.B) {
	r := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.HistogramHandle("alloc_latency_seconds").Observe(0.003)
	}
}

func BenchmarkObserveHandle(b *testing.B) {
	r := New()
	o := r.HistogramHandle("alloc_latency_seconds")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Observe(0.003)
	}
}
