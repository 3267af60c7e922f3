package bench

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"mrapid/internal/flight"
	"mrapid/internal/metrics"
)

// DefaultSLO is the objective the workload experiments hold every tenant
// to: an admission that waits more than 10s is a bad event.
func DefaultSLO() flight.SLOConfig {
	return flight.SLOConfig{TargetWait: 10 * time.Second}
}

// EnableFlightRecorder attaches a flight recorder (and, when slo has a
// target, the per-tenant SLO tracker) with the standard cluster gauges:
// per-node running containers, the scheduler's pending-container backlog,
// shuffle bytes in flight, intermediate-store residency, and AM-pool
// occupancy. Registry counters, uplus_cache_bytes included, ride along
// automatically. Gauges are read-only probes, so the recorder cannot
// perturb the run. The recorder is created started; Env.Run stops it with
// the job, and other drivers call StopIfRunning.
func (e *Env) EnableFlightRecorder(slo flight.SLOConfig) *flight.Recorder {
	if e.Flight != nil {
		return e.Flight
	}
	e.EnableObservability(0)
	rec := flight.New(e.Eng, e.Reg, e.Trace, flight.Config{SLO: slo})

	rec.AddGauge(func(sample func(string, float64)) {
		byNode := e.RM.ContainersByNode()
		names := make([]string, 0, len(byNode))
		for n := range byNode {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			sample(metrics.With("yarn_running_containers", "node", n), float64(byNode[n]))
		}
		sample("yarn_pending_asks", float64(e.RM.PendingAsks()))
		sample("mapreduce_shuffle_bytes_in_flight", float64(e.RT.ShuffleBytesInFlight()))
		if st := e.RT.Intermediates; st != nil {
			sample("intermediate_store_mem_bytes", float64(st.MemUsed()))
			sample("intermediate_store_disk_bytes", float64(st.DiskUsed()))
		}
		if e.FW != nil && e.FW.Pool != nil {
			sample("ampool_idle", float64(e.FW.Pool.Idle()))
			sample("ampool_alive", float64(e.FW.Pool.AliveAMs()))
			sample("ampool_size", float64(e.FW.Pool.Size()))
		}
		if e.FW != nil && e.FW.Memo != nil {
			s := e.FW.Memo.Snapshot()
			sample("memo_cache_mem_bytes", float64(s.MemBytes))
			sample("memo_cache_disk_bytes", float64(s.DiskBytes))
			sample("memo_cache_entries", float64(s.Entries))
		}
	})

	rec.Start()
	e.Flight = rec
	return rec
}

// WriteArtifact creates the file at path, lets write fill it, and closes
// it; the first error of the three is the result.
func WriteArtifact(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteFlightArtifacts writes the recorder's Prometheus series dump to
// o.SeriesOut. No-op when the env has no recorder or no path is set.
func (e *Env) WriteFlightArtifacts(o Options) error {
	if e.Flight == nil || o.SeriesOut == "" {
		return nil
	}
	return WriteArtifact(o.SeriesOut, e.Flight.WritePrometheus)
}

// TenantSLOReport is one tenant's SLO outcome in a ThroughputResult: the
// tracker's view (bucket-interpolated p99, event counts) alongside
// the experiment's own raw nearest-rank p99, which RunThroughput asserts
// the tracker against.
type TenantSLOReport struct {
	TargetSeconds float64
	P99Wait       float64 // bucket-interpolated, from the SLO tracker
	RawP99Wait    float64 // nearest-rank, from the run's raw wait samples
	Events        int64
	Bad           int64
}

func (t *TenantSLOReport) String() string {
	return fmt.Sprintf("p99=%.3fs raw=%.3fs bad=%d/%d", t.P99Wait, t.RawP99Wait, t.Bad, t.Events)
}
