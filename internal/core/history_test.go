package core

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"mrapid/internal/topology"
)

// Regression for the history-feedback bug: Record used to overwrite Elapsed
// with the last run's value while still counting Runs++, so one anomalous
// run rewrote the whole record. Elapsed must be the running mean over every
// recorded run.
func TestHistoryRecordRunningAggregates(t *testing.T) {
	t.Parallel()
	h := NewHistory()
	h.Record("job", ModeDPlus, 10*time.Second)
	h.Record("job", ModeDPlus, 20*time.Second)
	h.Record("job", ModeDPlus, 30*time.Second)

	e, ok := h.Entry("job")
	if !ok || e.Runs != 3 {
		t.Fatalf("entry = %+v / %v", e, ok)
	}
	if e.Elapsed != 20*time.Second {
		t.Errorf("Elapsed = %v, want the 20s running mean, not the last run", e.Elapsed)
	}
}

// A snapshot written when entries also carried per-job map averages
// (avg_map_cpu, avg_in, avg_out), and the store per-class calibration
// aggregates, still loads, with everything the decision maker reads intact.
func TestHistoryLoadsSnapshotWithDroppedAggregates(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 2, NewDPlusScheduler(FullDPlus()))
	old := `{"version": 2, "jobs": [{"job": "wordcount", "winner": "uplus", "elapsed": 9000000000,
		"avg_map_cpu": 1500000000, "avg_in": 10485760, "avg_out": 12582912, "runs": 3,
		"wins": {"dplus": 1, "uplus": 2}}],
		"classes": [{"class": "class-85eee4018e800c3a", "runs": 3, "rate": {"n": 3, "mean": 5.7e-07, "m2": 0}}]}`
	if _, err := rt.DFS.PutInstant(historyPath, []byte(old), nil); err != nil {
		t.Fatal(err)
	}
	h := NewHistory()
	if err := h.Load(rt.DFS); err != nil {
		t.Fatal(err)
	}
	e, ok := h.Entry("wordcount")
	if !ok || e.Winner != ModeUPlus || e.Elapsed != 9*time.Second || e.Runs != 3 || e.Wins[ModeUPlus] != 2 {
		t.Fatalf("loaded entry = %+v / %v", e, ok)
	}
}

// The winner is a majority vote with ties going to the latest run: a single
// anomalous U+ win amid a D+ streak must not flip the decision.
func TestHistoryWinnerMajorityVote(t *testing.T) {
	t.Parallel()
	h := NewHistory()
	h.Record("job", ModeDPlus, 10*time.Second)
	h.Record("job", ModeDPlus, 10*time.Second)
	h.Record("job", ModeUPlus, 9*time.Second) // anomaly: 2-1 for D+
	if w, _ := h.Winner("job"); w != ModeDPlus {
		t.Fatalf("winner = %v after a 2-1 D+ majority", w)
	}
	// Two more U+ wins (3-2) flip it legitimately.
	h.Record("job", ModeUPlus, 9*time.Second)
	h.Record("job", ModeUPlus, 9*time.Second)
	if w, _ := h.Winner("job"); w != ModeUPlus {
		t.Fatalf("winner = %v after a 3-2 U+ majority", w)
	}
}

// A version-2 snapshot that still carries per-class aggregates round-trips:
// loading it and saving it again keeps every entry whole, and the re-saved
// snapshot is version 2 without the class aggregates nothing reads.
func TestHistoryV2RoundTripWithClasses(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 2, NewDPlusScheduler(FullDPlus()))
	old := `{"version": 2, "jobs": [{"job": "wordcount", "winner": "dplus", "elapsed": 20000000000,
		"runs": 4, "wins": {"dplus": 4}}],
		"classes": [{"class": "class-abc", "runs": 4, "rate": {"n": 4, "mean": 5.7e-07, "m2": 0}}]}`
	if _, err := rt.DFS.PutInstant(historyPath, []byte(old), nil); err != nil {
		t.Fatal(err)
	}
	h := NewHistory()
	if err := h.Load(rt.DFS); err != nil {
		t.Fatal(err)
	}
	if err := h.Save(rt.DFS); err != nil {
		t.Fatal(err)
	}
	data, err := rt.DFS.Contents(historyPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if v := string(snap["version"]); v != "2" {
		t.Fatalf("re-saved snapshot version = %s, want 2", v)
	}
	if _, ok := snap["classes"]; ok {
		t.Fatal("re-saved snapshot still carries class aggregates")
	}
	h2 := NewHistory()
	if err := h2.Load(rt.DFS); err != nil {
		t.Fatal(err)
	}
	if h2.Len() != 1 {
		t.Fatalf("loaded %d entries", h2.Len())
	}
	if got, want := h2.Entries(), h.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("entries lost in round-trip: %+v vs %+v", got, want)
	}
	e, _ := h2.Entry("wordcount")
	if e.Winner != ModeDPlus || e.Elapsed != 20*time.Second || e.Runs != 4 || e.Wins[ModeDPlus] != 4 {
		t.Fatalf("loaded entry = %+v", e)
	}
}
