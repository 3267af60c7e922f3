package core

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"

	"mrapid/internal/hdfs"
	"mrapid/internal/profiler"
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

// Welford is an online mean/variance accumulator (Welford's algorithm),
// the substrate of the calibrating estimator's per-class aggregates.
type Welford struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// Add folds one sample into the running aggregates.
func (w *Welford) Add(x float64) {
	w.N++
	d := x - w.Mean
	w.Mean += d / float64(w.N)
	w.M2 += d * (x - w.Mean)
}

// Std returns the sample standard deviation (0 with fewer than 2 samples).
func (w Welford) Std() float64 {
	if w.N < 2 {
		return 0
	}
	return math.Sqrt(w.M2 / float64(w.N-1))
}

// CV returns the coefficient of variation (Std/|Mean|). A zero mean with
// spread is reported as +Inf — never confident.
func (w Welford) CV() float64 {
	s := w.Std()
	if w.Mean == 0 {
		if s == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return s / math.Abs(w.Mean)
}

// ClassStats holds the online-calibrating estimator's aggregates for one
// workload class (a job-spec fingerprint family, JobSpec.ClassKey). The
// per-byte rates generalize across input sizes, so repeat and *similar*
// jobs — new names, new data — can be predicted without a speculative race.
type ClassStats struct {
	Class string `json:"class"`
	Runs  int    `json:"runs"`

	// Rate is map-function compute seconds per input byte (t^m / s^i) and
	// Sel is the map selectivity (s^o / s^i): together with a new job's
	// measured split size they reconstruct the Table I inputs of Eq. 2/3.
	Rate Welford `json:"rate"`
	Sel  Welford `json:"sel"`

	// Calib is the measured-elapsed / raw-model-estimate ratio of the
	// winning mode: the online correction for everything Equations 2 and 3
	// deliberately omit (AM dispatch, the reduce phase, queueing inside the
	// job). Predicted runtimes are the raw estimate scaled by this mean.
	Calib Welford `json:"calib"`

	// IntraCV aggregates the within-job coefficient of variation of map
	// compute time: a class whose individual runs are internally skewed is
	// less predictable than its across-run variance alone suggests.
	IntraCV Welford `json:"intra_cv"`

	DWins int `json:"d_wins"`
	UWins int `json:"u_wins"`
}

// History is the decision maker's execution-record store. The paper keys
// records by program identity — "based on the execution records of the same
// job, even if they were executed with different input data" — and persists
// them to HDFS so future submissions skip speculative execution. On top of
// the exact-match entries it keeps per-workload-class calibration aggregates
// (ClassStats) so the estimator can pre-decide jobs it has never seen under
// that exact key.
type History struct {
	entries map[string]*HistoryEntry
	classes map[string]*ClassStats
}

// The confidence gate: a class predicts only after minRuns observations
// with across-run rate/selectivity CVs at most maxCV and a mean within-job
// map-compute CV at most maxIntraCV. Below the gate the job still races
// (and its outcome calibrates the class).
const (
	minRuns    = 3
	maxCV      = 0.25
	maxIntraCV = 0.75
)

// NewHistory returns an empty store.
func NewHistory() *History {
	return &History{
		entries: make(map[string]*HistoryEntry),
		classes: make(map[string]*ClassStats),
	}
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

// Observe folds one finished run into its workload class's calibration
// aggregates. modelEst is the raw Eq. 2/3 estimate for the mode that ran,
// computed from the run's own measured sample — its ratio to the measured
// elapsed time is the calibration factor future predictions are scaled by.
func (h *History) Observe(class string, winner ModeKind, elapsed time.Duration, modelEst time.Duration, s profiler.Summary) {
	if class == "" || s.MapCount == 0 || s.AvgIn <= 0 {
		return
	}
	cs, ok := h.classes[class]
	if !ok {
		cs = &ClassStats{Class: class}
		h.classes[class] = cs
	}
	cs.Runs++
	cs.Rate.Add(s.AvgMapCPU.Seconds() / float64(s.AvgIn))
	cs.Sel.Add(float64(s.AvgOut) / float64(s.AvgIn))
	if s.AvgMapCPU > 0 {
		cs.IntraCV.Add(s.MapCPUStd.Seconds() / s.AvgMapCPU.Seconds())
	}
	if modelEst > 0 && elapsed > 0 {
		cs.Calib.Add(elapsed.Seconds() / modelEst.Seconds())
	}
	switch winner {
	case ModeDPlus:
		cs.DWins++
	case ModeUPlus:
		cs.UWins++
	}
}

// Class returns the calibration aggregates for a workload class, if any.
func (h *History) Class(class string) (*ClassStats, bool) {
	cs, ok := h.classes[class]
	return cs, ok
}

// Confident reports whether a class has converged enough to pre-decide a
// job without racing: enough runs, stable per-byte rate and selectivity
// across runs, and internally un-skewed maps.
func (h *History) Confident(class string) bool {
	cs, ok := h.classes[class]
	if !ok || cs.Runs < minRuns {
		return false
	}
	return cs.Rate.CV() <= maxCV && cs.Sel.CV() <= maxCV && cs.IntraCV.Mean <= maxIntraCV
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

// Classes returns every workload-class aggregate, sorted by class key.
func (h *History) Classes() []*ClassStats {
	names := make([]string, 0, len(h.classes))
	for k := range h.classes {
		names = append(names, k)
	}
	slices.Sort(names)
	out := make([]*ClassStats, 0, len(names))
	for _, name := range names {
		out = append(out, h.classes[name])
	}
	return out
}

// Len reports the number of recorded job keys.
func (h *History) Len() int { return len(h.entries) }

// Forget removes a job's record (used by tests and by operators resetting a
// stale decision).
func (h *History) Forget(job string) { delete(h.entries, job) }

const (
	historyPath    = "/mrapid/history.json"
	historyTmpPath = historyPath + ".tmp"
)

// historySnapshot is the persisted schema (version 2): exact-match entries
// plus workload-class calibration aggregates.
type historySnapshot struct {
	Version int             `json:"version"`
	Jobs    []*HistoryEntry `json:"jobs"`
	Classes []*ClassStats   `json:"classes,omitempty"`
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
	snap := historySnapshot{Version: 2, Jobs: h.Entries(), Classes: h.Classes()}
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
	for _, cs := range snap.Classes {
		if cs != nil && cs.Class != "" {
			h.classes[cs.Class] = cs
		}
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
