package core

import (
	"mrapid/internal/mapreduce"
	"mrapid/internal/metrics"
	"mrapid/internal/profiler"
	"mrapid/internal/trace"
)

// tempOutput names a mode's private output prefix during speculation.
func tempOutput(base string, mode ModeKind) string {
	return base + ".__" + string(mode)
}

// decide is the decision maker, Figure 6 past the upload and the memo step:
//
//  2. the history is consulted — a recorded winner runs alone;
//  3. otherwise both D+ and U+ launch (against private temporary outputs);
//  4. the profiler reports each mode's first completed map;
//  5. Equations 2 and 3 are evaluated and the slower mode is killed;
//  6. the winner's output is promoted and the verdict is recorded for
//     future submissions of the same job key.
//
// Whichever way the mode was picked, the result's Profile.Decision says how.
func (f *Framework) decide(spec *mapreduce.JobSpec, done func(*mapreduce.Result)) {
	if winner, ok := f.History.Winner(spec.Key()); ok {
		if _, _, err := ModeFor(winner, f.UOpts); err == nil {
			f.RT.Reg.Inc(metrics.With("estimator_direct_total", "source", profiler.ByHistory))
			f.run(winner, spec, func(res *mapreduce.Result) {
				f.recordOutcome(spec, winner, res)
				res.Profile.Decision = profiler.Decision{Source: profiler.ByHistory}
				done(res)
			})
			return
		}
	}

	f.RT.Reg.Inc("estimator_race_total")
	mapreduce.Stage(f.RT, spec, string(ModeSpeculative), func(root trace.SpanID, err error) {
		if err != nil {
			f.RT.Trace.EndSpan(root, trace.A("error", err.Error()))
			done(&mapreduce.Result{Spec: spec, Mode: string(ModeSpeculative), Err: err})
			return
		}
		f.race(spec, root, done)
	})
}

// PreDecided reports whether a speculative submission of this spec would
// skip the race and launch its recorded winner alone. The JobServer charges
// such submissions one admission slot instead of two.
func (f *Framework) PreDecided(spec *mapreduce.JobSpec) bool {
	_, ok := f.History.Winner(spec.Key())
	return ok
}

// estimatorInputs is the one assembly of the Table I quantities Equations 2
// and 3 price: the measured t^m, s^i and s^o of sample (the race's first
// profiled map), the job's n^m from its split listing, and the cluster's
// n^c, n_u^m and rates.
func (f *Framework) estimatorInputs(spec *mapreduce.JobSpec, nm int, sample profiler.Summary) EstimatorInputs {
	workers := f.RT.Cluster.Workers()
	in := InputsFromProfile(sample, nm, mapreduce.ClusterContainerSlots(f.RT),
		f.UOpts.MapsPerWave(workers[0]), workers[0].Type, f.RT.Params)
	// With the shuffle service attached, the decision maker prices the
	// post-combine, post-compress shuffle, not the raw map output.
	in.ShuffleRatio = f.RT.ShuffleWireRatio(spec)
	return in
}

// splitShape lists the job's input splits once: n^m (0 when the listing
// fails).
func (f *Framework) splitShape(spec *mapreduce.JobSpec) int {
	splits, err := f.RT.Splits(spec.InputFiles)
	if err != nil {
		return 0
	}
	return len(splits)
}

// race runs both modes and arbitrates (steps 3–6). A mode that crashes
// (e.g. a fault-injected task exhausting MaxTaskAttempts) drops out of the
// race and the surviving mode wins by default; the job as a whole fails
// only when no runnable mode remains.
func (f *Framework) race(spec *mapreduce.JobSpec, root trace.SpanID, done func(*mapreduce.Result)) {
	dSpec := *spec
	dSpec.OutputFile = tempOutput(spec.OutputFile, ModeDPlus)
	uSpec := *spec
	uSpec.OutputFile = tempOutput(spec.OutputFile, ModeUPlus)

	d := profiler.Decision{Source: profiler.ByRace, Span: root}
	decided := false
	finished := false
	handles := map[ModeKind]*mapreduce.Submission{}
	var sample *profiler.TaskProfile
	gone := map[ModeKind]bool{} // modes that crashed or that the decision maker killed
	var first *mapreduce.Result // the first crash, reported if no mode survives

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
		res.Profile.Decision = d
		f.RT.Trace.EndSpan(root, trace.A("winner", string(winner)))
		f.recordOutcome(spec, winner, res)
		done(res)
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
	// crash's error and profile.
	dropOut := func(mode ModeKind, res *mapreduce.Result) {
		if finished {
			return
		}
		decided = true
		other := loserOf(mode)
		last := gone[other]
		gone[mode] = true
		if first == nil {
			first = res
		}
		f.RT.DeleteOutputPrefix(tempOutput(spec.OutputFile, mode))
		if last {
			finished = true
			f.RT.DeleteOutputPrefix(tempOutput(spec.OutputFile, other))
			f.RT.Trace.EndSpan(root, trace.A("error", first.Err.Error()))
			first.Profile.Decision = d
			done(&mapreduce.Result{Spec: spec, Mode: string(ModeSpeculative), Profile: first.Profile, Err: first.Err})
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
		in := f.estimatorInputs(spec, f.splitShape(spec), profiler.Summary{
			AvgMapCPU: sample.ComputeDur, AvgIn: sample.InputBytes, AvgOut: sample.OutputBytes,
		})
		d.EstimateU = EstimateUPlus(in)
		d.EstimateD = EstimateDPlus(in)
		d.At = f.RT.Eng.Now()
		projected := Decide(in)
		// The decision instant is a point event on the race span: which
		// mode was projected to lose, and from which estimates.
		f.RT.Trace.Annotate(root,
			trace.A("decided_at", d.At.String()),
			trace.A("estimate_dplus", d.EstimateD.String()),
			trace.A("estimate_uplus", d.EstimateU.String()),
			trace.A("projected_winner", string(projected)))
		gone[loserOf(projected)] = true
		handles[loserOf(projected)].Kill()
	}

	// Both modes go through the one submission lifecycle, already staged
	// under the race's root.
	for _, m := range []struct {
		mode ModeKind
		spec *mapreduce.JobSpec
	}{{ModeDPlus, &dSpec}, {ModeUPlus, &uSpec}} {
		s := f.submission(m.mode)
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

// recordOutcome records the finished run's winner under its job key (step 6).
func (f *Framework) recordOutcome(spec *mapreduce.JobSpec, winner ModeKind, res *mapreduce.Result) {
	if res.Err != nil || res.Profile == nil {
		return
	}
	f.History.Record(spec.Key(), winner, res.Profile.Elapsed())
	// Persisting the snapshot mirrors the profiler uploading records to
	// HDFS; failures only cost future pre-decisions.
	_ = f.History.Save(f.RT.DFS)
}
