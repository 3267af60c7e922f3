package core

import (
	"fmt"

	"mrapid/internal/mapreduce"
	"mrapid/internal/memo"
	"mrapid/internal/profiler"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
	"mrapid/internal/yarn"
)

// UPlusOptions toggle the U+ optimizations for the Figure 15 ablation: they
// are the in-AM executor's options, whose zero value is stock Uber.
type UPlusOptions = mapreduce.InAMOptions

// FullUPlus returns the paper's complete U+ configuration.
func FullUPlus() UPlusOptions { return mapreduce.FullUPlus() }

// Framework is the MRapid job submission framework of one simulated cluster:
// the proxy with its AM pool, the execution-record history, the U+ options.
type Framework struct {
	RT      *mapreduce.Runtime
	Pool    *Pool
	History *History
	UOpts   UPlusOptions
	// NotifyPoll reports completion at the client's next status poll, not over
	// the proxy's RPC: the "reducing communication" ablation (Figures 14–15).
	NotifyPoll bool
	// Memo, when non-nil, is consulted by every Submit first:
	// a hit skips execution (ModeMemo result), a miss commits the fresh output.
	Memo *memo.Cache
	// StockFallbacks counts jobs that went cold for want of a live pooled AM.
	StockFallbacks int64

	started bool
}

// NewFramework assembles the framework with poolSize reserved AMs (paper: 3).
func NewFramework(rt *mapreduce.Runtime, poolSize int, uopts UPlusOptions) *Framework {
	return &Framework{RT: rt, Pool: NewPool(rt, poolSize), History: NewHistory(), UOpts: uopts}
}

// Start launches the proxy service: the AM pool comes up and any persisted
// history is loaded. ready fires when the framework can accept jobs.
func (f *Framework) Start(ready func()) {
	if f.started {
		panic("core: framework started twice")
	}
	f.started = true
	if err := f.History.Load(f.RT.DFS); err != nil {
		// A corrupt history snapshot only disables pre-decisions.
		f.History = NewHistory()
	}
	f.Pool.Start(ready)
}

// ModeFor is the mode table: which AM a single-mode ModeKind runs, and whether
// it comes warm from the pool. A race or a memo label is not a single mode.
func ModeFor(kind ModeKind, uopts UPlusOptions) (mode mapreduce.Mode, pooled bool, err error) {
	switch kind {
	case ModeHadoop:
		return mapreduce.ModeDistributed, false, nil
	case ModeUber:
		return mapreduce.ModeUber, false, nil
	case ModeDPlus:
		return mapreduce.ModeDPlus, true, nil
	case ModeUPlus:
		return mapreduce.ModeUPlus(uopts), true, nil
	}
	return mapreduce.Mode{}, false, fmt.Errorf("core: %q is not a single execution mode", kind)
}

// submission is a row of the mode table applied to this framework, ready to
// start; runnable has vouched for kind.
func (f *Framework) submission(kind ModeKind) *mapreduce.Submission {
	mode, pooled, _ := ModeFor(kind, f.UOpts)
	s := &mapreduce.Submission{Mode: mode, Poll: f.NotifyPoll}
	if pooled {
		s.Source = f.pooledAM
	}
	return s
}

// runnable is the check ahead of the memo step and of admission: a mode the
// table knows, or a race with a reserved AM for each side.
func (f *Framework) runnable(kind ModeKind) error {
	if kind != ModeSpeculative {
		_, _, err := ModeFor(kind, f.UOpts)
		return err
	}
	if f.Pool.Size() < 2 {
		return fmt.Errorf("core: speculative submission needs an AM pool of at least 2, have %d", f.Pool.Size())
	}
	return nil
}

// Submit is the one way a job enters the framework (Figure 6): the client
// uploads and submits to the proxy, which runs the job in one of the table's
// modes or, for ModeSpeculative, in the mode the decision maker picks. A kind
// that cannot run here comes back as an error result. An attached memoization
// cache is consulted first: a hit serves the cached output — no mode runs, so
// there is nothing to decide or record — and a miss commits the fresh result.
// What the decision maker did is on the result's Profile.Decision.
func (f *Framework) Submit(kind ModeKind, spec *mapreduce.JobSpec, done func(*mapreduce.Result)) {
	if err := f.runnable(kind); err != nil {
		done(&mapreduce.Result{Spec: spec, Mode: string(kind), Err: err})
		return
	}
	f.viaMemo(spec, done, func(commit func(*mapreduce.Result)) {
		f.run(kind, spec, func(res *mapreduce.Result) {
			commit(res)
			done(res)
		})
	})
}

// run is Submit past the memo step: a single mode goes through the submission
// lifecycle, a race through the decision maker — which comes back here with
// the one mode it picked up front, or stages once and starts two.
func (f *Framework) run(kind ModeKind, spec *mapreduce.JobSpec, done func(*mapreduce.Result)) {
	if kind == ModeSpeculative {
		f.decide(spec, done)
		return
	}
	f.submission(kind).Start(f.RT, spec, done)
}

// pooledAM is the lifecycle's warm AM source: the proxy dispatches a reserved
// AM, which only has to localize the job's artifacts — no AM allocation, no
// JVM start, the paper's central saving. With no live AM to offer it declines:
// the submission continues cold rather than queue behind the replacements.
func (f *Framework) pooledAM(spec *mapreduce.JobSpec, prof *profiler.JobProfile, _ int,
	up func(*yarn.App, *topology.Node, error), lost func()) func() {
	if f.Pool.Exhausted() {
		f.StockFallbacks++
		f.RT.Trace.Mark(prof.Span, "proxy", "AM pool exhausted; stock submission")
		return nil
	}
	prof.AMPoolHit = true
	dispatchStart := f.RT.Eng.Now()
	var pam *PooledAM
	f.Pool.Acquire(func(am *PooledAM) {
		pam = am
		pam.onLost = lost
		f.RT.Localize(spec, pam.Node, func(err error) {
			if pam.lost {
				return
			}
			if err != nil {
				up(nil, pam.Node, err)
				return
			}
			f.RT.Trace.SpanSince(prof.Span, "proxy", "am-dispatch", "am", dispatchStart,
				trace.A("pool_hit", "true"), trace.A("am_node", pam.Node.Name))
			// The AM container belongs to the pool's app, not to the job's.
			up(f.RT.RM.NewAppInQueue(spec.Name+"@"+prof.Mode, spec.Queue), pam.Node, nil)
		})
	})
	return func() { f.Pool.Release(pam) }
}
