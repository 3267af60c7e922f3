package bench

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mrapid/internal/mapreduce"
)

// TestMemoByteIdentityGolden is the cache's core contract at workload
// scale: across cache on/off and a node-crash chaos schedule, every job of
// the repeat-heavy stream must hash identically — a memo hit is
// indistinguishable from a fresh run. (The companion invalidation golden —
// a mutated input forcing a re-run that must again match a from-scratch
// execution — is pinned at the framework level in core's
// TestMemoHitSkipsExecution.)
func TestMemoByteIdentityGolden(t *testing.T) {
	t.Parallel()
	// Fault times count from cluster-ready. With the cache on only the
	// stream's first three jobs (arrivals 0, 2, 4 s) execute, so the crash
	// has to land there to be chaos for both rows: node-01 dies under the
	// second job's race.
	chaos := []mapreduce.NodeFault{{Node: "node-01", At: 2 * time.Second, RestartAfter: 8 * time.Second}}
	clean := map[bool]*ThroughputResult{}
	for _, faults := range [][]mapreduce.NodeFault{nil, chaos} {
		var base map[string]string
		for _, cache := range []bool{false, true} {
			o := Options{Scale: 0.05, Seed: 3, MemoCache: cache, NodeFaults: faults}
			r, err := RunThroughput(A3x4(), memoWorkload(), o)
			if err != nil {
				t.Fatalf("cache=%v faults=%v: %v", cache, faults, err)
			}
			if cache && faults == nil && r.MemoHits == 0 {
				t.Fatal("cache-on run recorded no hits")
			}
			if !cache && r.MemoHits+r.MemoMisses != 0 {
				t.Fatalf("cache-off run recorded lookups: %d/%d", r.MemoHits, r.MemoMisses)
			}
			checkWorkload(t, fmt.Sprintf("memo cache=%v faults=%d", cache, len(faults)), r)
			// The chaos must be real chaos: a crash that changes no job's
			// timing proves nothing about recovery.
			if c := clean[cache]; faults == nil {
				clean[cache] = r
			} else if r.Makespan == c.Makespan && r.P99 == c.P99 && r.SlotSeconds == c.SlotSeconds {
				t.Fatalf("cache=%v: the node crash left no mark on the run (makespan %.2f s, p99 %.2f s)",
					cache, r.Makespan, r.P99)
			}
			if base == nil {
				base = r.OutputHashes
				continue
			}
			for job, want := range base {
				if got := r.OutputHashes[job]; got != want {
					t.Fatalf("cache=%v faults=%v: %s output %s, want %s", cache, faults, job, got, want)
				}
			}
		}
	}
}

// TestMemoFlightSeries pins the recorder's view of the cache: two identical
// cache-on recorder-on runs must dump byte-identical Prometheus series —
// memo counters and residency gauges included — and the dashboard must
// carry the cache row.
func TestMemoFlightSeries(t *testing.T) {
	t.Parallel()
	dump := func() (series, dash []byte, hits int64) {
		o := Options{Scale: 0.05, Seed: 3, MemoCache: true, FlightRecorder: true}
		r, err := RunThroughput(A3x4(), memoWorkload(), o)
		if err != nil {
			t.Fatal(err)
		}
		var sb, db bytes.Buffer
		if err := r.flightEnv.Flight.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if err := writeDashboardTo(&db, r); err != nil {
			t.Fatal(err)
		}
		return sb.Bytes(), db.Bytes(), r.MemoHits
	}
	s1, d1, hits := dump()
	s2, d2, _ := dump()
	if !bytes.Equal(s1, s2) {
		t.Fatal("Prometheus series dumps differ between identical cache-on runs")
	}
	if !bytes.Equal(d1, d2) {
		t.Fatal("dashboards differ between identical cache-on runs")
	}
	if hits == 0 {
		t.Fatal("recorded run had no cache hits")
	}
	for _, want := range []string{"memo_hits_total", "memo_misses_total", "memo_cache_entries", "memo_cache_mem_bytes"} {
		if !bytes.Contains(s1, []byte(want)) {
			t.Fatalf("series dump missing %s", want)
		}
	}
	if !bytes.Contains(d1, []byte("cross-job memo")) {
		t.Fatal("dashboard missing the cache row")
	}
}

// TestMemoExperiment runs the registered experiment end to end at test
// scale; every correctness gate (byte identity, all-stage repeat hits,
// shared-subtree precision, makespan and slot-second wins) is enforced
// inside Memo itself, so this pins that they all hold.
func TestMemoExperiment(t *testing.T) {
	t.Parallel()
	fig, err := Memo(Options{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, Options{Scale: 0.05, Seed: 1})
	if len(fig.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(fig.Points))
	}
	for _, label := range []string{"jobs/on", "query/on"} {
		found := false
		for _, p := range fig.Points {
			if p.Label == label {
				found = true
				if p.Seconds["hit-rate"] <= 0 {
					t.Errorf("%s: hit rate %v, want > 0", label, p.Seconds["hit-rate"])
				}
			}
		}
		if !found {
			t.Errorf("missing point %q", label)
		}
	}
}
