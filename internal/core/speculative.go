package core

import (
	"time"

	"mrapid/internal/mapreduce"
	"mrapid/internal/metrics"
	"mrapid/internal/profiler"
	"mrapid/internal/sim"
	"mrapid/internal/trace"
)

// SpecResult is the outcome of a speculative submission.
type SpecResult struct {
	Result *mapreduce.Result
	Winner ModeKind

	// FromHistory is true when the decision maker answered from the
	// execution-record store and only one mode ran.
	FromHistory bool

	// FromPrediction is true when the calibrating estimator pre-decided the
	// mode from workload-class aggregates (no exact history record, no
	// race); Predicted is its calibrated completion-time prediction.
	FromPrediction bool
	Predicted      time.Duration

	// DecidedAt is when the estimator's verdict killed the slower mode
	// (zero when the decision came from history or a mode finishing first).
	DecidedAt sim.Time

	// EstimateD and EstimateU are the Equation 2/3 estimates the decision
	// used (zero when no estimate was needed).
	EstimateD time.Duration
	EstimateU time.Duration

	// Span is the root of the race's span tree in the run's trace.Log (the
	// winner's own job span is a child); 0 when untraced or pre-decided
	// from history (then the winner's Result.Profile.Span is the root).
	Span trace.SpanID
}

// Elapsed returns the winner's completion time in seconds.
func (r *SpecResult) Elapsed() float64 {
	if r.Result == nil {
		return 0
	}
	return r.Result.Elapsed()
}

// tempOutput names a mode's private output prefix during speculation.
func tempOutput(base string, mode ModeKind) string {
	return base + ".__" + string(mode)
}

// SubmitSpeculative runs a job through the full MRapid workflow of Figure 6:
//
//  1. the client uploads the job artifacts and submits to the proxy;
//  2. the decision maker consults the history — a recorded winner runs
//     alone;
//  3. otherwise both D+ and U+ launch (against private temporary outputs);
//  4. the profiler reports each mode's first completed map;
//  5. the decision maker evaluates Equations 2 and 3 and kills the slower
//     mode;
//  6. the winner's output is promoted and the verdict is recorded for
//     future submissions of the same job key.
func (f *Framework) SubmitSpeculative(spec *mapreduce.JobSpec, done func(*SpecResult)) {
	if done == nil {
		panic("core: SubmitSpeculative needs a completion callback")
	}
	if f.Pool.Size() < 2 {
		panic("core: speculative execution needs an AM pool of at least 2")
	}

	// Step 0, ahead of even the history consult: the memoization cache. A
	// hit ends the whole workflow — no mode ever runs, so there is nothing
	// to decide and no outcome to record (a served result must not feed the
	// estimator's calibration with near-zero elapsed times). On a miss the
	// commit hook rides each branch's completion; speculate's branches start
	// their submissions directly, so the one lookup here is the only one.
	f.viaMemo(spec, func(res *mapreduce.Result) {
		done(&SpecResult{Result: res, Winner: ModeMemo})
	}, func(commit func(*mapreduce.Result)) {
		f.speculate(spec, func(out *SpecResult) {
			if out.Result != nil {
				commit(out.Result)
			}
			done(out)
		})
	})
}

// speculate is SubmitSpeculative past the memoization hook: steps 2–6.
func (f *Framework) speculate(spec *mapreduce.JobSpec, done func(*SpecResult)) {
	// direct runs one pre-decided mode alone, like a single-mode submission.
	direct := func(s *mapreduce.Submission, out *SpecResult, after func(*mapreduce.Result)) {
		s.Start(f.RT, spec, func(res *mapreduce.Result) {
			f.recordOutcome(spec, out.Winner, res)
			after(res)
			out.Result, out.Span = res, res.Profile.Span
			done(out)
		})
	}

	// Pre-decision from history (step 2).
	if winner, ok := f.History.Winner(spec.Key()); ok {
		if s, err := f.submission(winner); err == nil {
			f.RT.Reg.Inc(metrics.With("estimator_direct_total", "source", "history"))
			direct(s, &SpecResult{Winner: winner, FromHistory: true}, func(*mapreduce.Result) {})
			return
		}
	}

	// Pre-decision from the calibrating estimator: a job whose workload
	// class has converged launches the projected winner directly — no 2×
	// dual-launch — and its outcome keeps calibrating the class.
	if pred, ok := f.PredictMode(spec); ok {
		if s, err := f.submission(pred.Mode); err == nil {
			f.RT.Reg.Inc(metrics.With("estimator_direct_total", "source", "prediction"))
			f.RT.Trace.Add("proxy", "estimator pre-decision: %s direct (predicted %s, class %s over %d runs)",
				pred.Mode, pred.Runtime, pred.Class, pred.Runs)
			direct(s, &SpecResult{
				Winner:         pred.Mode,
				FromPrediction: true, Predicted: pred.Runtime,
				EstimateD: pred.EstimateD, EstimateU: pred.EstimateU,
			}, func(res *mapreduce.Result) { f.accountPrediction(pred, spec, res) })
			return
		}
	}

	f.RT.Reg.Inc("estimator_race_total")
	mapreduce.Stage(f.RT, spec, string(ModeSpeculative), func(root trace.SpanID, err error) {
		if err != nil {
			f.RT.Trace.EndSpan(root, trace.A("error", err.Error()))
			done(&SpecResult{Result: &mapreduce.Result{Spec: spec, Err: err}, Span: root})
			return
		}
		f.race(spec, root, done)
	})
}

// race runs both modes and arbitrates (steps 3–6). A mode that crashes
// (e.g. a fault-injected task exhausting MaxTaskAttempts) drops out of the
// race and the surviving mode wins by default; the job as a whole fails
// only when no runnable mode remains.
func (f *Framework) race(spec *mapreduce.JobSpec, root trace.SpanID, done func(*SpecResult)) {
	dSpec := *spec
	dSpec.OutputFile = tempOutput(spec.OutputFile, ModeDPlus)
	uSpec := *spec
	uSpec.OutputFile = tempOutput(spec.OutputFile, ModeUPlus)

	out := &SpecResult{Span: root}
	decided := false
	finished := false
	handles := map[ModeKind]*mapreduce.Submission{}
	var sample *profiler.TaskProfile
	gone := map[ModeKind]bool{} // modes that crashed or that the decision maker killed
	var firstErr error

	finish := func(winner ModeKind, res *mapreduce.Result) {
		if finished {
			return
		}
		finished = true
		// Kill the loser if it is still running (a finished mode's kill is
		// a no-op).
		if h := handles[loserOf(winner)]; h != nil {
			h.Kill()
		}
		// Promote the winner's output and discard the loser's — from HDFS
		// and the intermediate store both, since intra-query stages commit
		// their racing temp outputs to the store.
		f.RT.DeleteOutputPrefix(tempOutput(spec.OutputFile, loserOf(winner)))
		if err := f.RT.RenameOutputPrefix(tempOutput(spec.OutputFile, winner), spec.OutputFile); err != nil && res.Err == nil {
			res.Err = err
		}
		res.Spec = spec
		out.Result = res
		out.Winner = winner
		if res.Profile != nil {
			// The verdict instant belongs in the winner's profile too, so
			// the analyzer and the cost model read the same record.
			res.Profile.DecidedAt = out.DecidedAt
		}
		f.RT.Trace.EndSpan(root, trace.A("winner", string(winner)))
		f.recordOutcome(spec, winner, res)
		done(out)
	}

	// amLost answers the lifecycle when a racing mode lost its AM's node: the
	// last mode that could still produce output is relaunched alone, the way a
	// single-mode submission is (the verdict may kill D+ while U+'s AM sits on
	// a crashed node the RM has not expired yet); otherwise the loss is a
	// crash like any other and the mode drops out.
	amLost := func(mode ModeKind) func() bool {
		return func() bool {
			// The estimator must not kill the sole survivor after this point.
			decided = true
			return !finished && gone[loserOf(mode)]
		}
	}

	// dropOut removes a crashed mode from the race. If the other mode is
	// still runnable it simply inherits the win; if not, this was the last
	// mode that could produce output and the job fails with the first
	// crash's error.
	dropOut := func(mode ModeKind, res *mapreduce.Result) {
		if finished {
			return
		}
		decided = true
		other := loserOf(mode)
		last := gone[other]
		gone[mode] = true
		if firstErr == nil {
			firstErr = res.Err
		}
		f.RT.DeleteOutputPrefix(tempOutput(spec.OutputFile, mode))
		if last {
			finished = true
			f.RT.DeleteOutputPrefix(tempOutput(spec.OutputFile, other))
			out.Result = &mapreduce.Result{Spec: spec, Err: firstErr}
			f.RT.Trace.EndSpan(root, trace.A("error", firstErr.Error()))
			done(out)
		}
	}

	// modeDone routes a mode's completion: clean finishes arbitrate the
	// race, crashes drop the mode out.
	modeDone := func(mode ModeKind) func(*mapreduce.Result) {
		return func(res *mapreduce.Result) {
			if res.Err != nil {
				dropOut(mode, res)
				return
			}
			finish(mode, res)
		}
	}

	// Step 5: once the profiler has a sample, estimate both modes and kill
	// the projected loser. Map compute time is mode-independent, so the
	// first sample from either mode suffices.
	decide := func() {
		if decided || finished {
			return
		}
		decided = true
		in := f.estimatorInputs(spec)
		in.TM = sample.ComputeDur
		in.SI = sample.InputBytes
		in.SO = sample.OutputBytes
		out.EstimateU = EstimateUPlus(in)
		out.EstimateD = EstimateDPlus(in)
		out.DecidedAt = f.RT.Eng.Now()
		projected := Decide(in)
		// The decision instant is a point event on the race span: which
		// mode was projected to lose, and from which estimates.
		f.RT.Trace.Annotate(root,
			trace.A("decided_at", out.DecidedAt.String()),
			trace.A("estimate_dplus", out.EstimateD.String()),
			trace.A("estimate_uplus", out.EstimateU.String()),
			trace.A("projected_winner", string(projected)))
		f.RT.Trace.Add("proxy", "speculative decision: %s projected to win (D+=%s U+=%s)",
			projected, out.EstimateD, out.EstimateU)
		gone[loserOf(projected)] = true
		handles[loserOf(projected)].Kill()
	}

	// Both modes go through the one submission lifecycle, already staged
	// under the race's root.
	for _, m := range []struct {
		mode ModeKind
		spec *mapreduce.JobSpec
	}{{ModeDPlus, &dSpec}, {ModeUPlus, &uSpec}} {
		s, _ := f.submission(m.mode)
		s.OnAMLost = amLost(m.mode)
		s.OnMap = func(tp *profiler.TaskProfile) {
			if sample == nil {
				sample = tp
				decide()
			}
		}
		handles[m.mode] = s
		s.StartStaged(f.RT, m.spec, root, modeDone(m.mode))
	}
}

func loserOf(winner ModeKind) ModeKind {
	if winner == ModeDPlus {
		return ModeUPlus
	}
	return ModeDPlus
}

// recordOutcome updates the history with the finished run (step 6): the
// exact-match running aggregates and the workload class's calibration.
func (f *Framework) recordOutcome(spec *mapreduce.JobSpec, winner ModeKind, res *mapreduce.Result) {
	if res.Err != nil || res.Profile == nil {
		return
	}
	sum := res.Profile.Summarize()
	f.History.Record(spec.Key(), winner, res.Profile.Elapsed(), sum)
	f.calibrate(spec, winner, res.Profile.Elapsed(), sum)
	// Persisting the snapshot mirrors the profiler uploading records to
	// HDFS; failures only cost future pre-decisions.
	_ = f.History.Save(f.RT.DFS)
}

// countSplits returns n^m for the estimator.
func countSplits(rt *mapreduce.Runtime, spec *mapreduce.JobSpec) int {
	splits, err := rt.Splits(spec.InputFiles)
	if err != nil {
		return 0
	}
	return len(splits)
}
