package bench

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"mrapid/internal/flight"
	"mrapid/internal/metrics"
	"mrapid/internal/report"
)

// DefaultSLO is the objective the workload experiments hold every tenant
// to: p99 queue wait under 10s, with the tracker's fixed 10% bad-event
// budget burned over 30s/2m/10m windows. The blocked-FIFO throughput run
// violates it hard for the later tenants, which is exactly what the
// burn-rate lanes are meant to show.
func DefaultSLO() flight.SLOConfig {
	return flight.SLOConfig{TargetWait: 10 * time.Second}
}

// EnableFlightRecorder attaches a flight recorder (and, when slo has a
// target, the per-tenant SLO tracker) with the standard cluster gauges:
// per-node running containers, the scheduler's pending-container backlog,
// shuffle bytes in flight, intermediate-store residency, and AM-pool
// occupancy. Registry counters — including uplus_cache_bytes and every
// *_total rate — ride along automatically. Gauges are read-only probes, so
// the recorder cannot perturb the run. The recorder is created started;
// Env.Run stops it with the job, and other drivers call StopIfRunning.
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

// FlightDashboard renders the env's recorder into a Dashboard value with
// the top-k slowest phases filled in from the trace.
func (e *Env) FlightDashboard(title string, topK int) flight.Dashboard {
	return flight.Dashboard{
		Title:    title,
		Rec:      e.Flight,
		TopSpans: report.TopSpans(e.Trace, topK),
	}
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

// WriteFlightArtifacts writes whichever flight artifacts the options ask
// for: the Prometheus series dump (SeriesOut) and the HTML dashboard
// (DashOut). No-op when the env has no recorder.
func (e *Env) WriteFlightArtifacts(o Options, title string) error {
	if e.Flight == nil {
		return nil
	}
	if o.SeriesOut != "" {
		if err := WriteArtifact(o.SeriesOut, e.Flight.WritePrometheus); err != nil {
			return err
		}
	}
	if o.DashOut != "" {
		d := e.FlightDashboard(title, 15)
		if err := WriteArtifact(o.DashOut, func(w io.Writer) error { return flight.WriteDashboard(w, d) }); err != nil {
			return err
		}
	}
	return nil
}

// TenantSLOReport is one tenant's SLO outcome in a ThroughputResult: the
// tracker's view (bucket-interpolated p99, burn rates, breaches) alongside
// the experiment's own raw nearest-rank p99, which RunThroughput asserts
// the tracker against.
type TenantSLOReport struct {
	TargetSeconds float64
	P99Wait       float64 // bucket-interpolated, from the SLO tracker
	RawP99Wait    float64 // nearest-rank, from the run's raw wait samples
	Events        int64
	Bad           int64
	Breaches      int64
	Burn          map[string]float64 // window label → burn rate at end of run
}

func (t *TenantSLOReport) String() string {
	return fmt.Sprintf("p99=%.3fs raw=%.3fs bad=%d/%d breaches=%d",
		t.P99Wait, t.RawP99Wait, t.Bad, t.Events, t.Breaches)
}
