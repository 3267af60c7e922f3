package core

import (
	"fmt"

	"mrapid/internal/mapreduce"
	"mrapid/internal/profiler"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
	"mrapid/internal/yarn"
)

// AM is the runnable ApplicationMaster interface every execution mode's AM
// satisfies; the shared launcher drives attempts through it.
type AM interface {
	// Run executes the job and reports the finished profile (or error).
	Run(done func(*profiler.JobProfile, error))
	// Kill abandons the attempt (speculative losers, lost-AM cleanup).
	Kill()
}

// Executor abstracts one execution mode behind the framework's shared
// launcher: how to build the mode's AM on a pooled node, and how to submit
// the job through the mode's stock path when no pooled AM is available.
// D+, U+, and the two stock modes are all implementations, so the
// speculative race, AM-loss relaunch, and pool-exhaustion degradation logic
// is written exactly once.
type Executor interface {
	// Mode identifies the executor in results, spans, and history records.
	Mode() ModeKind

	// UsesPool reports whether the mode dispatches to a reserved pooled AM
	// (the MRapid modes) or always cold-submits (the stock modes).
	UsesPool() bool

	// NewAM constructs the mode's ApplicationMaster on the pooled AM's node
	// and finishes populating the profile (container counts etc.). onMap,
	// when non-nil, observes map completions (the decision maker's sample).
	// Only called when UsesPool() is true.
	NewAM(f *Framework, spec *mapreduce.JobSpec, app *yarn.App, node *topology.Node,
		prof *profiler.JobProfile, onMap func(*profiler.TaskProfile)) (AM, error)

	// SubmitStock runs the job through the mode's cold submission path:
	// the only path for stock modes, the degraded path for pooled modes
	// when the AM pool is exhausted.
	SubmitStock(f *Framework, spec *mapreduce.JobSpec, done func(*mapreduce.Result))
}

// dplusExecutor runs jobs in MRapid's D+ distributed mode.
type dplusExecutor struct{}

func (dplusExecutor) Mode() ModeKind { return ModeDPlus }
func (dplusExecutor) UsesPool() bool { return true }

func (dplusExecutor) NewAM(f *Framework, spec *mapreduce.JobSpec, app *yarn.App, node *topology.Node,
	prof *profiler.JobProfile, onMap func(*profiler.TaskProfile)) (AM, error) {
	am, err := mapreduce.NewDistributedAM(f.RT, spec, app, node, prof)
	if err != nil {
		return nil, err
	}
	am.OnMapComplete = onMap
	return am, nil
}

func (dplusExecutor) SubmitStock(f *Framework, spec *mapreduce.JobSpec, done func(*mapreduce.Result)) {
	mapreduce.Submit(f.RT, spec, mapreduce.ModeDistributed, done)
}

// uplusExecutor runs jobs in MRapid's U+ uber mode.
type uplusExecutor struct{}

func (uplusExecutor) Mode() ModeKind { return ModeUPlus }
func (uplusExecutor) UsesPool() bool { return true }

func (uplusExecutor) NewAM(f *Framework, spec *mapreduce.JobSpec, app *yarn.App, node *topology.Node,
	prof *profiler.JobProfile, onMap func(*profiler.TaskProfile)) (AM, error) {
	am, err := mapreduce.NewInAM(f.RT, spec, app, node, prof, f.UOpts)
	if err != nil {
		return nil, err
	}
	am.OnMapComplete = onMap
	return am, nil
}

func (uplusExecutor) SubmitStock(f *Framework, spec *mapreduce.JobSpec, done func(*mapreduce.Result)) {
	mapreduce.Submit(f.RT, spec, mapreduce.ModeUPlus(f.UOpts), done)
}

// stockExecutor runs jobs through the classic Hadoop submission flow in
// either distributed or uber mode; it never touches the AM pool.
type stockExecutor struct {
	kind ModeKind
	mode mapreduce.Mode
}

func (e stockExecutor) Mode() ModeKind { return e.kind }
func (stockExecutor) UsesPool() bool   { return false }

func (stockExecutor) NewAM(*Framework, *mapreduce.JobSpec, *yarn.App, *topology.Node,
	*profiler.JobProfile, func(*profiler.TaskProfile)) (AM, error) {
	panic("core: stock executor has no pooled AM")
}

func (e stockExecutor) SubmitStock(f *Framework, spec *mapreduce.JobSpec, done func(*mapreduce.Result)) {
	mapreduce.Submit(f.RT, spec, e.mode, done)
}

// ExecutorFor returns the executor implementing a single-mode ModeKind.
func ExecutorFor(mode ModeKind) (Executor, error) {
	switch mode {
	case ModeDPlus:
		return dplusExecutor{}, nil
	case ModeUPlus:
		return uplusExecutor{}, nil
	case ModeHadoop:
		return stockExecutor{kind: ModeHadoop, mode: mapreduce.ModeDistributed}, nil
	case ModeUber:
		return stockExecutor{kind: ModeUber, mode: mapreduce.ModeUber}, nil
	}
	return nil, fmt.Errorf("core: no executor for mode %q", mode)
}

// attempt is the state of one pooled launch: which AM serves it, whether
// that AM went back to the pool, and whether the client already heard the
// outcome. It replaces the nested released/finished closure flags the two
// per-mode launch bodies used to duplicate.
type attempt struct {
	f        *Framework
	exec     Executor
	spec     *mapreduce.JobSpec
	prof     *profiler.JobProfile
	pam      *PooledAM
	done     func(*mapreduce.Result)
	released bool
	finished bool
}

// release returns the serving AM to the pool exactly once.
func (a *attempt) release() {
	if !a.released {
		a.released = true
		a.f.Pool.Release(a.pam)
	}
}

// finish reports the outcome exactly once: the AM goes back to the pool and
// the client is notified (direct RPC, or poll-aligned under the ablation).
func (a *attempt) finish(res *mapreduce.Result) {
	if a.finished {
		return
	}
	a.finished = true
	a.release()
	a.f.notify(a.prof, res, a.done)
}

// fail stamps the attempt's end and finishes with the error.
func (a *attempt) fail(err error) {
	a.prof.DoneAt = a.f.RT.Eng.Now()
	a.finish(&mapreduce.Result{Spec: a.spec, Mode: string(a.exec.Mode()), Profile: a.prof, Err: err})
}

// Submit runs a job through the framework in the executor's mode: MRapid
// modes dispatch to a pooled AM (with AM-loss relaunch and pool-exhaustion
// degradation), stock modes cold-submit. This is the mode-agnostic entry
// the JobServer routes admitted jobs through.
//
// With a memoization cache attached, the cache is consulted first: a hit
// serves the cached output instead of executing — no upload, no AM, no
// containers — and a miss commits the successful fresh result on the way
// out. SubmitSpeculative does its own lookup before its three-way branch,
// so its internal submissions route through submitNoMemo.
func (f *Framework) Submit(exec Executor, spec *mapreduce.JobSpec, done func(*mapreduce.Result)) {
	if done == nil {
		panic("core: Submit needs a completion callback")
	}
	f.viaMemo(spec, done, func(commit func(*mapreduce.Result)) {
		f.submitNoMemo(exec, spec, func(res *mapreduce.Result) {
			commit(res)
			done(res)
		})
	})
}

// submitNoMemo is Submit's execution body, past the memoization hook.
func (f *Framework) submitNoMemo(exec Executor, spec *mapreduce.JobSpec, done func(*mapreduce.Result)) {
	if !exec.UsesPool() {
		exec.SubmitStock(f, spec, done)
		return
	}
	root := f.RT.Trace.StartSpan(0, "job", spec.Name, "", trace.A("mode", string(exec.Mode())))
	finish := func(res *mapreduce.Result) {
		f.RT.Trace.EndSpan(root)
		done(res)
	}
	uploadStart := f.RT.Eng.Now()
	f.RT.UploadArtifacts(spec, func(err error) {
		f.RT.Trace.SpanSince(root, "client", "upload artifacts", "submit", uploadStart)
		if err != nil {
			finish(&mapreduce.Result{Spec: spec, Mode: string(exec.Mode()), Err: err})
			return
		}
		f.run(exec, spec, 1, root, finish)
	})
}

// run is one pooled attempt plus its recovery policy: degrade to the stock
// path when the pool has no live AM, relaunch (fresh pooled AM, partial
// output removed) when the serving AM dies, up to Params.MaxAMAttempts.
func (f *Framework) run(exec Executor, spec *mapreduce.JobSpec, attemptNo int, parent trace.SpanID, done func(*mapreduce.Result)) {
	if f.Pool.Size() == 0 || f.Pool.Exhausted() {
		f.fallBackToStock(spec, func() {
			exec.SubmitStock(f, spec, done)
		})
		return
	}
	f.launch(exec, spec, parent, nil, func(res *mapreduce.Result) {
		if f.retryLostAM(spec, attemptNo, res, func() { f.run(exec, spec, attemptNo+1, parent, done) }) {
			return
		}
		done(res)
	})
}

// launch dispatches an uploaded job to a pooled AM in the executor's mode.
// onMap, when non-nil, observes map completions (for the decision maker).
// parent is the trace span the attempt nests under (0 for an untraced run).
func (f *Framework) launch(exec Executor, spec *mapreduce.JobSpec, parent trace.SpanID,
	onMap func(*profiler.TaskProfile), done func(*mapreduce.Result)) *handle {
	h := &handle{}
	att := &attempt{
		f: f, exec: exec, spec: spec, done: done,
		prof: &profiler.JobProfile{
			Job:         spec.Key(),
			Mode:        string(exec.Mode()),
			SubmittedAt: f.RT.Eng.Now(),
			AMPoolHit:   true,
		},
	}
	// The attempt span covers exactly [SubmittedAt, DoneAt]; f.notify
	// closes it.
	att.prof.Span = f.RT.Trace.StartSpan(parent, "job", spec.Name+" ("+string(exec.Mode())+")", "")
	dispatchStart := f.RT.Eng.Now()
	f.Pool.Acquire(func(pam *PooledAM) {
		// The pooled AM only needs the job's artifacts; its JVM and runtime
		// are already warm.
		att.pam = pam
		// If the AM's node dies at any point while serving this job, the
		// attempt is gone: kill whatever work the job app still has out on
		// other nodes and report the loss (the submit wrapper may relaunch).
		pam.onLost = func() {
			h.Kill()
			att.fail(mapreduce.ErrAMLost)
		}
		f.RT.Localize(spec, pam.Node, func(err error) {
			if att.finished {
				return
			}
			if err != nil {
				att.fail(err)
				return
			}
			att.prof.AMReadyAt = f.RT.Eng.Now()
			att.prof.AMStartup = att.prof.AMReadyAt.Sub(att.prof.SubmittedAt)
			// A pool hit pays only proxy dispatch + localization, never an
			// AM allocation or JVM start — the paper's central saving.
			f.RT.Trace.SpanSince(att.prof.Span, "proxy", "am-dispatch", "am", dispatchStart,
				trace.A("pool_hit", "true"), trace.A("am_node", pam.Node.Name))
			app := f.RT.RM.NewAppInQueue(spec.Name+"@"+string(exec.Mode()), spec.Queue)
			am, err := exec.NewAM(f, spec, app, pam.Node, att.prof, onMap)
			if err != nil {
				att.fail(err)
				return
			}
			h.attach(func() {
				am.Kill()
				att.release()
				// A speculative loser's span is closed at the kill instant.
				f.RT.Trace.EndSpan(att.prof.Span, trace.A("killed", "true"))
			})
			if h.killed {
				return
			}
			am.Run(func(p *profiler.JobProfile, err error) {
				att.finish(&mapreduce.Result{Spec: spec, Mode: string(exec.Mode()), Profile: p, Err: err})
			})
		})
	})
	return h
}
