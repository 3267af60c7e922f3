package core

import (
	"time"

	"mrapid/internal/mapreduce"
	"mrapid/internal/metrics"
	"mrapid/internal/profiler"
	"mrapid/internal/trace"
)

// Prediction is the calibrating estimator's up-front verdict for a job: the
// mode to launch directly (no speculative race) and the calibrated
// completion-time prediction.
type Prediction struct {
	Class   string
	Mode    ModeKind
	Runtime time.Duration // calibrated completion-time prediction

	// EstimateD and EstimateU are the raw Equation 2/3 estimates built from
	// the class's per-byte aggregates and this job's measured split size.
	EstimateD time.Duration
	EstimateU time.Duration

	// Runs is how many calibration observations backed the verdict.
	Runs int
}

// estimatorInputs is the one assembly of the Table I quantities Equations 2
// and 3 price: the measured t^m, s^i and s^o of sample (a profiled map in
// the race, a finished run's averages in calibration, class aggregates in a
// prediction), the job's n^m from its split listing, and the cluster's n^c,
// n_u^m and rates.
func (f *Framework) estimatorInputs(spec *mapreduce.JobSpec, nm int, sample profiler.Summary) EstimatorInputs {
	workers := f.RT.Cluster.Workers()
	in := InputsFromProfile(sample, nm, mapreduce.ClusterContainerSlots(f.RT),
		f.UOpts.MapsPerWave(workers[0]), workers[0].Type, f.RT.Params)
	// With the shuffle service attached, the decision maker prices the
	// post-combine, post-compress shuffle, not the raw map output.
	in.ShuffleRatio = f.RT.ShuffleWireRatio(spec)
	return in
}

// splitShape lists the job's input splits once: n^m and the mean split size
// (both 0 when the listing fails).
func (f *Framework) splitShape(spec *mapreduce.JobSpec) (n int, mean int64) {
	splits, err := f.RT.Splits(spec.InputFiles)
	if err != nil || len(splits) == 0 {
		return 0, 0
	}
	var total int64
	for _, s := range splits {
		total += s.Length
	}
	return len(splits), total / int64(len(splits))
}

// calibrated scales a raw Eq. 2/3 estimate by the class's measured
// actual/estimate ratio (identity until the class has calibration samples).
func (cs *ClassStats) calibrated(est time.Duration) time.Duration {
	if cs == nil || cs.Calib.N == 0 || cs.Calib.Mean <= 0 {
		return est
	}
	return time.Duration(cs.Calib.Mean * float64(est))
}

// PredictMode consults the calibrating estimator for a job the framework
// has never seen under its exact key. It answers only when prediction is
// enabled and the job's workload class has passed the confidence gate;
// everything else keeps racing (and calibrating).
func (f *Framework) PredictMode(spec *mapreduce.JobSpec) (*Prediction, bool) {
	if !f.Predict {
		return nil, false
	}
	class := spec.ClassKey()
	cs, ok := f.History.Class(class)
	if !ok || !f.History.Confident(class) {
		return nil, false
	}
	nm, si := f.splitShape(spec)
	if nm <= 0 || si <= 0 {
		return nil, false
	}
	in := f.estimatorInputs(spec, nm, profiler.Summary{
		AvgMapCPU: time.Duration(cs.Rate.Mean * float64(si) * float64(time.Second)),
		AvgIn:     si,
		AvgOut:    int64(cs.Sel.Mean * float64(si)),
	})
	p := &Prediction{
		Class:     class,
		Runs:      cs.Runs,
		EstimateD: EstimateDPlus(in),
		EstimateU: EstimateUPlus(in),
		Mode:      Decide(in),
	}
	p.Runtime = cs.calibrated(estimate(p.Mode, in))
	return p, true
}

// PreDecided reports whether a speculative submission of this spec would
// skip the race and launch a single mode — either from an exact-match
// history record or from a confident class prediction. The JobServer
// charges such submissions one admission slot instead of two.
func (f *Framework) PreDecided(spec *mapreduce.JobSpec) bool {
	if _, ok := f.History.Winner(spec.Key()); ok {
		return true
	}
	_, ok := f.PredictMode(spec)
	return ok
}

// calibrate feeds a finished run's measurements into its class aggregates:
// the per-byte rates and the actual/estimate ratio for the mode that ran.
func (f *Framework) calibrate(spec *mapreduce.JobSpec, winner ModeKind, elapsed time.Duration, sum profiler.Summary) {
	if sum.MapCount == 0 || sum.AvgIn <= 0 {
		return
	}
	nm, _ := f.splitShape(spec)
	est := estimate(winner, f.estimatorInputs(spec, nm, sum))
	f.History.Observe(spec.ClassKey(), winner, elapsed, est, sum)
}

// accountPrediction settles the books on a direct-pick run: the relative
// prediction error lands in the estimator_prediction_error histogram and on
// the job span, and the skipped mode is re-estimated from the run's own
// measured sample — when that calibrated estimate beats the time we
// actually took, the pick is charged as regret (estimator_regret_total,
// estimator_regret_seconds).
func (f *Framework) accountPrediction(pred *Prediction, spec *mapreduce.JobSpec, res *mapreduce.Result) {
	if res.Err != nil || res.Profile == nil {
		return
	}
	actual := res.Profile.Elapsed()
	if actual <= 0 {
		return
	}
	relErr := (actual - pred.Runtime).Abs().Seconds() / actual.Seconds()
	f.RT.Reg.Observe("estimator_prediction_error", relErr)
	f.RT.Trace.Annotate(res.Profile.Span,
		trace.A("predicted", pred.Runtime.String()),
		trace.A("prediction_class", pred.Class),
		trace.A("prediction_error", time.Duration(relErr*float64(time.Second)).String()))

	sum := res.Profile.Summarize()
	if sum.MapCount == 0 || sum.AvgIn <= 0 {
		return
	}
	nm, _ := f.splitShape(spec)
	other := loserOf(pred.Mode)
	cs, _ := f.History.Class(pred.Class)
	otherEst := cs.calibrated(estimate(other, f.estimatorInputs(spec, nm, sum)))
	if otherEst > 0 && otherEst < actual {
		regret := actual - otherEst
		f.RT.Reg.Inc(metrics.With("estimator_regret_total", "picked", string(pred.Mode)))
		f.RT.Reg.Observe("estimator_regret_seconds", regret.Seconds())
		f.RT.Trace.Annotate(res.Profile.Span, trace.A("regret", regret.String()),
			trace.A("regret_vs", string(other)))
	}
}
