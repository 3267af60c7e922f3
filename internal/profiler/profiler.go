// Package profiler records per-task and per-job execution information —
// phase durations, input/output sizes, achieved locality — the way the
// paper's ASM-based bytecode profiler instruments Hadoop tasks. The MRapid
// decision maker feeds these records into its cost model (Equations 2 and
// 3) to estimate D+ vs U+ completion times.
package profiler

import (
	"fmt"
	"time"

	"mrapid/internal/sim"
	"mrapid/internal/trace"
)

// TaskKind distinguishes map from reduce records.
type TaskKind int

// Task kinds.
const (
	MapTask TaskKind = iota
	ReduceTask
)

func (k TaskKind) String() string {
	if k == MapTask {
		return "map"
	}
	return "reduce"
}

// TaskProfile is the record for one task attempt.
type TaskProfile struct {
	Kind    TaskKind
	Index   int    // split index for maps, partition for reduces
	Node    string // where it ran
	Started sim.Time
	Ended   sim.Time

	// Phase durations (the paper's map sub-phases: setup is charged as the
	// container launch, read/map/spill/merge are recorded here; reduces
	// record shuffle in ReadDur and the final HDFS write in SpillDur).
	ReadDur    time.Duration
	ComputeDur time.Duration
	SpillDur   time.Duration
	MergeDur   time.Duration

	InputBytes  int64
	OutputBytes int64
	Records     int64
	Spills      int  // how many spill files the task produced
	NodeLocal   bool // whether the input was read from a local replica

	// Attempt numbers retries (0 = first attempt); Failed marks attempts
	// that crashed and were rescheduled.
	Attempt int
	Failed  bool
}

// Elapsed returns the task's wall time on the virtual clock.
func (p *TaskProfile) Elapsed() time.Duration { return p.Ended.Sub(p.Started) }

// Decision sources: how a job came by the mode it ran in. The zero source is
// a mode the submitter fixed.
const (
	ByRace    = "race"    // D+ and U+ raced, the slower one was killed
	ByHistory = "history" // the job key's recorded winner ran alone
	ByMemo    = "memo"    // nothing ran: the cache served the output
)

// Decision is the decision maker's record for one job, written once by
// core.Framework.Submit whichever path chose the mode.
type Decision struct {
	Source string

	// EstimateD and EstimateU are the Equation 3 and 2 estimates behind a
	// race's verdict; zero when none was needed (history, memo, a fixed
	// mode, a race a mode won or lost before the first sample).
	EstimateD time.Duration
	EstimateU time.Duration

	// At is the instant a race's verdict killed the slower mode.
	At sim.Time

	// Span is the race's root span: both modes' job spans are its children
	// and the upload sits under it, so it, not JobProfile.Span, is the tree
	// the analyzer must walk. Zero for every other source.
	Span trace.SpanID
}

// JobProfile aggregates a single job execution in one mode.
type JobProfile struct {
	Job  string // job identity key, e.g. "wordcount"
	Mode string // "hadoop", "uber", "dplus", "uplus"

	SubmittedAt sim.Time
	AMReadyAt   sim.Time
	FirstTaskAt sim.Time
	MapsDoneAt  sim.Time
	DoneAt      sim.Time

	// AMStartup is how long the job waited for a running AM (container
	// allocation + localization + JVM/AM init), i.e. AMReadyAt-SubmittedAt
	// for cold starts and the (near-zero) pool dispatch time for D+/U+
	// pool hits. AMPoolHit records which of those it was.
	AMStartup time.Duration
	AMPoolHit bool

	// Decision is what the decision maker did to pick Mode (Figure 6).
	Decision Decision

	// Span is the root of this job's span tree in the run's trace.Log
	// (0 when tracing is off); the critical-path analyzer walks it.
	Span trace.SpanID

	Tasks []*TaskProfile

	NumMaps       int
	NumReduces    int
	NumContainers int // max simultaneous task containers available to the job
}

// Add appends a finished task record.
func (jp *JobProfile) Add(tp *TaskProfile) { jp.Tasks = append(jp.Tasks, tp) }

// Root is the span tree that covers the whole job: the race's when the
// decision maker ran one, the job's own otherwise.
func (jp *JobProfile) Root() trace.SpanID {
	if jp.Decision.Span != 0 {
		return jp.Decision.Span
	}
	return jp.Span
}

// Elapsed is the job completion time from submission.
func (jp *JobProfile) Elapsed() time.Duration { return jp.DoneAt.Sub(jp.SubmittedAt) }

// Summary is the aggregate the estimator consumes: the measured averages
// standing in for the paper's Table I symbols.
type Summary struct {
	Job  string
	Mode string

	MapCount  int
	AvgMapCPU time.Duration // t^m: average map-function compute time
	AvgIn     int64         // s^i: average map input bytes
	AvgOut    int64         // s^o: average map output bytes
}

// Summarize reduces a job profile to the estimator's inputs.
func (jp *JobProfile) Summarize() Summary {
	s := Summary{Job: jp.Job, Mode: jp.Mode}
	var mapCPU time.Duration
	var in, out int64
	for _, t := range jp.Tasks {
		// Crashed attempts carry partial measurements; the estimator only
		// wants completed-map averages.
		if !t.Failed && t.Kind == MapTask {
			s.MapCount++
			mapCPU += t.ComputeDur
			in += t.InputBytes
			out += t.OutputBytes
		}
	}
	if s.MapCount > 0 {
		s.AvgMapCPU = mapCPU / time.Duration(s.MapCount)
		s.AvgIn = in / int64(s.MapCount)
		s.AvgOut = out / int64(s.MapCount)
	}
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("%s/%s: %d maps, t^m=%v, s^i=%d, s^o=%d",
		s.Job, s.Mode, s.MapCount, s.AvgMapCPU, s.AvgIn, s.AvgOut)
}
