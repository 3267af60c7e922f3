package metrics_test

import (
	"io"
	"sync"
	"testing"

	"mrapid/internal/metrics"
)

// TestRegistryConcurrentUse hammers one registry from many goroutines. Run
// under -race (the CI race job does) this asserts the registry's locking:
// simulations on different goroutines may share a registry, and a reader
// may snapshot it while writers run.
func TestRegistryConcurrentUse(t *testing.T) {
	reg := metrics.New()
	reg.Define("latency", metrics.DefaultDurationBuckets)

	const tasks = 64
	const perTask = 250
	var wg sync.WaitGroup
	wg.Add(tasks)
	for i := 0; i < tasks; i++ {
		i := i
		go func() {
			defer wg.Done()
			for j := 0; j < perTask; j++ {
				reg.Inc("tasks_total")
				reg.Add(metrics.With("bytes_total", "shard", string(rune('a'+i%4))), 10)
				reg.Observe("latency", float64(j)*0.001)
				if j%50 == 0 {
					// Concurrent readers must see consistent snapshots.
					_ = reg.Get("tasks_total")
					_ = reg.Counters()
					_ = reg.Histograms()
					_ = reg.Dump(io.Discard)
				}
			}
		}()
	}
	wg.Wait()

	if got := reg.Get("tasks_total"); got != tasks*perTask {
		t.Fatalf("tasks_total = %d, want %d", got, tasks*perTask)
	}
	var bytes int64
	for name, v := range reg.Counters() {
		if len(name) > 11 && name[:11] == "bytes_total" {
			bytes += v
		}
	}
	if bytes != tasks*perTask*10 {
		t.Fatalf("bytes_total sum = %d, want %d", bytes, tasks*perTask*10)
	}
	h := reg.Histograms()["latency"]
	if h == nil || h.Count != tasks*perTask {
		t.Fatalf("latency histogram = %+v", h)
	}
}
