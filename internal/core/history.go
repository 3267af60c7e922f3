package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"mrapid/internal/hdfs"
)

// HistoryEntry records the outcome of the profiled executions of one job
// key. Elapsed is the running mean over all recorded runs (not the last
// run's value — a single anomalous run used to overwrite the whole record);
// Wins counts how often each mode won, and Winner is the majority vote.
// Snapshots written when entries also carried per-job map averages load:
// the decoder skips those fields.
type HistoryEntry struct {
	Job     string           `json:"job"`
	Winner  ModeKind         `json:"winner"`
	Elapsed time.Duration    `json:"elapsed"`
	Runs    int              `json:"runs"`
	Wins    map[ModeKind]int `json:"wins,omitempty"`
}

// History is the decision maker's execution-record store. The paper keys
// records by program identity — "based on the execution records of the same
// job, even if they were executed with different input data" — and persists
// them to HDFS so future submissions skip speculative execution.
type History struct {
	entries map[string]*HistoryEntry
}

// NewHistory returns an empty store.
func NewHistory() *History {
	return &History{entries: make(map[string]*HistoryEntry)}
}

// Record folds one finished run into the job key's running aggregates. The
// recorded Winner is the majority vote over all runs, ties going to the most
// recent winner — a mode keeps the crown only while it wins at least as often
// as the incumbent, so one anomalous run amid a streak cannot flip future
// mode decisions.
func (h *History) Record(job string, winner ModeKind, elapsed time.Duration) {
	e, ok := h.entries[job]
	if !ok {
		e = &HistoryEntry{Job: job, Wins: make(map[ModeKind]int)}
		h.entries[job] = e
	}
	if e.Wins == nil {
		e.Wins = make(map[ModeKind]int)
	}
	e.Runs++
	e.Elapsed += (elapsed - e.Elapsed) / time.Duration(e.Runs)
	e.Wins[winner]++
	if e.Winner == "" || e.Wins[winner] >= e.Wins[e.Winner] {
		e.Winner = winner
	}
}

// Winner returns the recorded majority mode for a job key, if any.
func (h *History) Winner(job string) (ModeKind, bool) {
	if e, ok := h.entries[job]; ok {
		return e.Winner, true
	}
	return "", false
}

// Entry returns the full record for a job key.
func (h *History) Entry(job string) (*HistoryEntry, bool) {
	e, ok := h.entries[job]
	return e, ok
}

// Entries returns every exact-match record, sorted by job key.
func (h *History) Entries() []*HistoryEntry {
	out := make([]*HistoryEntry, 0, len(h.entries))
	for _, name := range sortedKeys(h.entries) {
		out = append(out, h.entries[name])
	}
	return out
}

// Len reports the number of recorded job keys.
func (h *History) Len() int { return len(h.entries) }

const (
	historyPath    = "/mrapid/history.json"
	historyTmpPath = historyPath + ".tmp"
)

// historySnapshot is the persisted schema (version 2): the exact-match
// entries. Snapshots that also carried per-class calibration aggregates
// load; the decoder skips that field.
type historySnapshot struct {
	Version int             `json:"version"`
	Jobs    []*HistoryEntry `json:"jobs"`
}

// Save serializes the store into HDFS (replacing any previous snapshot).
// The write itself is metadata-sized; like the paper's profile uploads it
// happens off the measured path, so it is staged costlessly.
//
// The replacement is atomic: the new snapshot is staged at a temporary
// name first and renamed over (a pure NameNode metadata operation), so at
// every instant either the old or the new snapshot is durable. The old
// delete-then-put sequence had a window where a crash lost the whole
// history.
func (h *History) Save(dfs *hdfs.DFS) error {
	snap := historySnapshot{Version: 2, Jobs: h.Entries()}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("core: encoding history: %w", err)
	}
	if dfs.Exists(historyTmpPath) {
		if err := dfs.Delete(historyTmpPath); err != nil {
			return err
		}
	}
	if _, err := dfs.PutInstant(historyTmpPath, data, nil); err != nil {
		return err
	}
	// From here the new snapshot is durable at the temporary name; Load
	// falls back to it if a crash lands between the delete and the rename.
	if dfs.Exists(historyPath) {
		if err := dfs.Delete(historyPath); err != nil {
			return err
		}
	}
	return dfs.Rename(historyTmpPath, historyPath)
}

// Load restores a snapshot saved by Save. A missing snapshot yields an
// empty store, not an error; an interrupted Save is recovered from its
// staged temporary.
func (h *History) Load(dfs *hdfs.DFS) error {
	path := historyPath
	if !dfs.Exists(path) {
		if !dfs.Exists(historyTmpPath) {
			return nil
		}
		path = historyTmpPath
	}
	data, err := dfs.Contents(path)
	if err != nil {
		return err
	}
	var snap historySnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("core: decoding history: %w", err)
	}
	for _, e := range snap.Jobs {
		h.entries[e.Job] = e
	}
	return nil
}

func sortedKeys(m map[string]*HistoryEntry) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
