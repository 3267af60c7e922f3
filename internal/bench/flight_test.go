package bench

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"mrapid/internal/core"
	"mrapid/internal/flight"
	"mrapid/internal/mapreduce"
)

// flightWorkload is the shared small workload for the recorder tests.
func flightWorkload() WorkloadConfig {
	return WorkloadConfig{
		Jobs: 8, Tenants: 2, Arrival: "poisson:200ms",
		Policy: core.PolicyWeightedFair, Blocked: true,
	}
}

// TestFlightRecorderByteIdentity is the recorder's core contract: sampling
// is a pure observer. Across recorder on/off and a node-crash chaos
// schedule, every job's output must hash identically.
func TestFlightRecorderByteIdentity(t *testing.T) {
	t.Parallel()
	// The crash lands mid-workload (after the AM pool is fully up) and the
	// node comes back, so every schedule still completes all jobs.
	chaos := []mapreduce.NodeFault{{Node: "node-02", At: 6 * time.Second, RestartAfter: 8 * time.Second}}
	for _, faults := range [][]mapreduce.NodeFault{nil, chaos} {
		var base map[string]string
		for _, recorder := range []bool{false, true} {
			o := Options{Scale: 0.05, Seed: 3, FlightRecorder: recorder, NodeFaults: faults}
			r, err := RunThroughput(A3x4(), flightWorkload(), o)
			if err != nil {
				t.Fatalf("recorder=%v faults=%v: %v", recorder, faults, err)
			}
			checkWorkload(t, fmt.Sprintf("flight recorder=%v faults=%d", recorder, len(faults)), r)
			if base == nil {
				base = r.OutputHashes
				continue
			}
			for job, want := range base {
				if got := r.OutputHashes[job]; got != want {
					t.Fatalf("recorder=%v faults=%v: %s output %s, want %s", recorder, faults, job, got, want)
				}
			}
		}
	}
}

// TestFlightRecorderSeriesDeterminism pins the series artifact itself: two
// identical recorder-on runs must produce byte-identical Prometheus dumps
// and byte-identical dashboards.
func TestFlightRecorderSeriesDeterminism(t *testing.T) {
	t.Parallel()
	dump := func() (series, dash []byte) {
		o := Options{Scale: 0.05, Seed: 3, FlightRecorder: true}
		r, err := RunThroughput(A3x4(), flightWorkload(), o)
		if err != nil {
			t.Fatal(err)
		}
		var sb bytes.Buffer
		if err := r.flightEnv.Flight.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		var db bytes.Buffer
		if err := writeDashboardTo(&db, r); err != nil {
			t.Fatal(err)
		}
		return sb.Bytes(), db.Bytes()
	}
	s1, d1 := dump()
	s2, d2 := dump()
	if !bytes.Equal(s1, s2) {
		t.Fatal("Prometheus series dumps differ between identical runs")
	}
	if !bytes.Equal(d1, d2) {
		t.Fatal("dashboards differ between identical runs")
	}
	if len(s1) == 0 {
		t.Fatal("empty series dump")
	}
}

func writeDashboardTo(w *bytes.Buffer, r *ThroughputResult) error {
	d := r.flightEnv.FlightDashboard("determinism check", 10)
	return flight.WriteDashboard(w, d)
}

// TestFlightRecorderSLOPopulated checks the recorder-on result carries the
// cross-verified SLO reports (RunThroughput errors out if the tracker and
// the raw recomputation disagree, so reaching here means they agreed).
func TestFlightRecorderSLOPopulated(t *testing.T) {
	t.Parallel()
	o := Options{Scale: 0.05, Seed: 7, FlightRecorder: true}
	r, err := RunThroughput(A3x4(), flightWorkload(), o)
	if err != nil {
		t.Fatal(err)
	}
	if r.FlightSamples == 0 {
		t.Fatal("no samples recorded")
	}
	if len(r.SLO) != 2 {
		t.Fatalf("SLO reports for %d tenants, want 2", len(r.SLO))
	}
	for tn, rep := range r.SLO {
		if rep.Events == 0 {
			t.Errorf("%s: no SLO events", tn)
		}
		if len(rep.Burn) != 3 {
			t.Errorf("%s: burn windows = %v, want 3", tn, rep.Burn)
		}
		if rep.TargetSeconds != 10 {
			t.Errorf("%s: target = %v", tn, rep.TargetSeconds)
		}
	}
	// The recorder-off result must carry none of it.
	r2, err := RunThroughput(A3x4(), flightWorkload(), Options{Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r2.SLO != nil || r2.FlightSamples != 0 {
		t.Fatal("recorder-off run carries flight results")
	}
	// And the recorder must not move the measured numbers at all.
	if r.Makespan != r2.Makespan || r.P50 != r2.P50 || r.MeanWait != r2.MeanWait {
		t.Fatalf("recorder shifted measurements: %v/%v vs %v/%v",
			r.Makespan, r.P50, r2.Makespan, r2.P50)
	}
}

// TestFlightArtifactsWritten drives the artifact path end to end through a
// temp dir: series dump and dashboard both written and non-trivial.
func TestFlightArtifactsWritten(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	o := Options{Scale: 0.05, Seed: 7, FlightRecorder: true,
		SeriesOut: dir + "/series.prom",
		DashOut:   dir + "/dash.html",
	}
	r, err := RunThroughput(A3x4(), flightWorkload(), o)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteFlightArtifacts(o, "artifact test"); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{o.SeriesOut, o.DashOut} {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(data) < 100 {
			t.Fatalf("%s: suspiciously small (%d bytes)", f, len(data))
		}
	}
	series, _ := os.ReadFile(o.SeriesOut)
	if !bytes.Contains(series, []byte(`slo_burn_rate{tenant="tenant-0",window="30s"}`)) {
		t.Fatal("series dump missing SLO burn series")
	}
	dash, _ := os.ReadFile(o.DashOut)
	if !bytes.Contains(dash, []byte("<h2>SLO — wait target 10s")) {
		t.Fatal("dashboard missing the SLO table")
	}
}

func ExampleTenantSLOReport_String() {
	rep := &TenantSLOReport{P99Wait: 1.5, RawP99Wait: 1.25, Events: 10, Bad: 2, Breaches: 1}
	fmt.Println(rep)
	// Output: p99=1.500s raw=1.250s bad=2/10 breaches=1
}

// The intermediate-store gauges are residency, like memo_cache_mem_bytes
// beside them: they rise with a commit and return to 0 once the files are
// deleted. Before the fix they sampled the cumulative commit counters and
// never fell.
func TestFlightRecorderStoreGaugesAreResidency(t *testing.T) {
	t.Parallel()
	setup := A3x4()
	setup.Params.UberCacheBytes = 1000 // the store's memory budget
	env, err := NewEnv(setup, VariantDPlus())
	if err != nil {
		t.Fatal(err)
	}
	rec := env.EnableFlightRecorder(flight.SLOConfig{})
	st, node := env.RT.EnsureIntermediates(), env.Cluster.Workers()[0]
	sampled := func(when string, wantMem, wantDisk float64) {
		t.Helper()
		env.Eng.RunUntil(env.Eng.Now().Add(2 * rec.Interval()))
		for name, want := range map[string]float64{"intermediate_store_mem_bytes": wantMem, "intermediate_store_disk_bytes": wantDisk} {
			if last, ok := rec.Series(name).Last(); !ok || last.Value != want {
				t.Errorf("%s: %s = %v, want %v", when, name, last.Value, want)
			}
		}
	}
	for _, name := range []string{"/q/a", "/q/b"} { // the second overflows to disk
		env.RT.CommitIntermediate(name, make([]byte, 600), node, func(error) {})
	}
	sampled("after two commits", 600, 600)
	st.DeletePrefix("/q/")
	sampled("after the delete", 0, 0)
	if st.MemBytes != 600 || st.DiskBytes != 600 {
		t.Errorf("cumulative counters %d / %d fell with the delete, want 600 / 600", st.MemBytes, st.DiskBytes)
	}
	if err := env.CheckResidency(); err != nil {
		t.Error(err)
	}
}
