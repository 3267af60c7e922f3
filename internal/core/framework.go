package core

import (
	"errors"

	"mrapid/internal/mapreduce"
	"mrapid/internal/memo"
	"mrapid/internal/profiler"
)

// UPlusOptions toggle the U+ optimizations for the Figure 15 ablation: they
// are the in-AM executor's options, whose zero value is stock Uber.
type UPlusOptions = mapreduce.InAMOptions

// FullUPlus returns the paper's complete U+ configuration.
func FullUPlus() UPlusOptions { return mapreduce.FullUPlus() }

// Framework is the MRapid job submission framework: the proxy with its AM
// pool, the execution-record history, and the configured U+ options. One
// Framework serves one simulated cluster.
type Framework struct {
	RT      *mapreduce.Runtime
	Pool    *Pool
	History *History
	UOpts   UPlusOptions

	// NotifyPoll makes the framework report completion at the client's next
	// status-poll tick instead of over the proxy's direct RPC. It exists
	// only for the "reducing communication" ablation (Figures 14–15); the
	// real framework always notifies directly.
	NotifyPoll bool

	// Memo, when non-nil, attaches the cross-job memoization cache: every
	// Submit/SubmitSpeculative consults it first, a hit skips execution
	// entirely (ModeMemo result, zero containers), and a miss commits the
	// successful fresh output for future identical submissions. Attached by
	// the bench/CLI layers when Params.MemoCache is set; nil means every
	// submission executes.
	Memo *memo.Cache

	// Predict enables the online-calibrating estimator: speculative
	// submissions whose workload class has passed the history's confidence
	// gate launch the projected winner directly instead of paying the 2×
	// dual-launch. Off by default — the paper's decision maker only trusts
	// exact-match history.
	Predict bool

	// StockFallbacks counts jobs routed through the stock submission path
	// because the AM pool had no live AM to offer (every reserved AM died
	// and the replacements were still launching).
	StockFallbacks int64

	started bool
}

// notify delivers a finished result to the client: direct RPC normally,
// poll-aligned under the communication ablation.
func (f *Framework) notify(prof *profiler.JobProfile, res *mapreduce.Result, done func(*mapreduce.Result)) {
	if !f.NotifyPoll {
		f.RT.Trace.EndSpan(prof.Span)
		done(res)
		return
	}
	pollStart := f.RT.Eng.Now()
	f.RT.PollAlignedNotify(prof.SubmittedAt, func() {
		if res.Profile != nil {
			res.Profile.DoneAt = f.RT.Eng.Now()
		}
		f.RT.Trace.SpanSince(prof.Span, "client", "poll wait", "notify", pollStart)
		f.RT.Trace.EndSpan(prof.Span)
		done(res)
	})
}

// NewFramework assembles the framework over a runtime. poolSize is the
// number of reserved AMs (the paper's default is 3, from the cost model's
// AMPoolSize).
func NewFramework(rt *mapreduce.Runtime, poolSize int, uopts UPlusOptions) *Framework {
	return &Framework{
		RT:      rt,
		Pool:    NewPool(rt, poolSize),
		History: NewHistory(),
		UOpts:   uopts,
	}
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

// handle tracks a mode execution whose AM materializes asynchronously, so
// the decision maker can kill it at any point.
type handle struct {
	killed bool
	killFn func()
}

func (h *handle) Kill() {
	h.killed = true
	if h.killFn != nil {
		h.killFn()
	}
}

func (h *handle) attach(kill func()) {
	h.killFn = kill
	if h.killed {
		kill()
	}
}

// SubmitDPlus runs a job in D+ mode through the framework: artifacts are
// uploaded, a pooled AM is dispatched by the proxy (no AM allocation or JVM
// start), and the distributed AM requests containers from the D+ scheduler.
// If the serving AM dies with its node the job is relaunched (fresh pooled
// AM, partial output removed) up to Params.MaxAMAttempts times; if the pool
// has no live AM at all, the job degrades to the stock submission path.
func (f *Framework) SubmitDPlus(spec *mapreduce.JobSpec, done func(*mapreduce.Result)) {
	f.Submit(dplusExecutor{}, spec, done)
}

// SubmitUPlus runs a job in U+ mode through the framework, with the same
// AM-loss relaunch and pool-exhaustion degradation as SubmitDPlus (the
// stock path for U+ is the in-AM executor, cold-submitted).
func (f *Framework) SubmitUPlus(spec *mapreduce.JobSpec, done func(*mapreduce.Result)) {
	f.Submit(uplusExecutor{}, spec, done)
}

// fallBackToStock records and traces a pool-exhaustion degradation, then
// runs the stock submission closure.
func (f *Framework) fallBackToStock(spec *mapreduce.JobSpec, submit func()) {
	f.StockFallbacks++
	f.RT.Trace.Add("proxy", "AM pool exhausted; job %s falls back to stock submission", spec.Name)
	submit()
}

// retryLostAM relaunches a job whose serving AM died, if the attempt budget
// allows: partial output is removed first so the re-run's writes don't
// collide. Returns true when the retry was taken.
func (f *Framework) retryLostAM(spec *mapreduce.JobSpec, attempt int, res *mapreduce.Result, relaunch func()) bool {
	if !errors.Is(res.Err, mapreduce.ErrAMLost) || attempt >= f.RT.Params.MaxAMAttempts {
		return false
	}
	f.RT.Trace.Add("proxy", "job %s attempt %d lost its AM; relaunching", spec.Name, attempt)
	f.RT.DeleteOutputPrefix(spec.OutputFile)
	relaunch()
	return true
}
