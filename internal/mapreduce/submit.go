package mapreduce

import (
	"errors"
	"fmt"

	"mrapid/internal/profiler"
	"mrapid/internal/trace"
	"mrapid/internal/yarn"
)

// Mode selects the ApplicationMaster a cold submission brings up: the
// distributed AM, or the in-AM executor with some options. Its name labels
// results, profiles, and spans.
type Mode struct {
	name string
	inAM bool
	opts InAMOptions
}

// The two stock execution modes. Stock Uber is the in-AM executor with zero
// options.
var (
	ModeDistributed = Mode{name: "hadoop"}
	ModeUber        = Mode{name: "uber", inAM: true}
)

// ModeUPlus is the in-AM executor with the given U+ options, cold-submitted:
// what a U+ job degrades to when no pooled AM is available, and the Figure 15
// ablation rows that run U+ without the submission framework.
func ModeUPlus(opts InAMOptions) Mode {
	return Mode{name: "uplus", inAM: true, opts: opts}
}

func (m Mode) String() string { return m.name }

// Result is the outcome of one job execution.
type Result struct {
	Spec    *JobSpec
	Mode    string
	Profile *profiler.JobProfile
	Err     error
}

// Elapsed returns the job's completion time.
func (r *Result) Elapsed() float64 {
	if r.Profile == nil {
		return 0
	}
	return r.Profile.Elapsed().Seconds()
}

// Submit runs the classic Hadoop submission flow (Figure 1 of the paper)
// with no submission-side MRapid optimizations — it is the one cold path
// every mode shares:
//
//  1. the client uploads the job jar and configuration to HDFS,
//  2. submits the job to the ResourceManager,
//  3. the scheduler allocates an AM container (waiting for a NodeManager
//     heartbeat under the stock scheduler) and the NM launches the AM JVM,
//  4. the AM initializes and localizes the job artifacts,
//  5. the job runs in the requested mode.
//
// done fires with the result once the output is durable.
func Submit(rt *Runtime, spec *JobSpec, mode Mode, done func(*Result)) {
	if done == nil {
		panic("mapreduce: Submit needs a completion callback")
	}
	prof := &profiler.JobProfile{
		Job:         spec.Key(),
		Mode:        mode.String(),
		SubmittedAt: rt.Eng.Now(),
	}
	// The job root span covers exactly [SubmittedAt, DoneAt]; the analyzer
	// relies on that to make phase durations sum to the job wall clock.
	prof.Span = rt.Trace.StartSpan(0, "job", spec.Name, "",
		trace.A("mode", mode.String()))
	// A stock client only observes the outcome at its next status poll.
	notify := func(r *Result) {
		pollStart := rt.Eng.Now()
		rt.PollAlignedNotify(prof.SubmittedAt, func() {
			if r.Profile != nil {
				r.Profile.DoneAt = rt.Eng.Now()
			}
			rt.Trace.SpanSince(prof.Span, "client", "poll wait", "notify", pollStart)
			rt.Trace.EndSpan(prof.Span)
			done(r)
		})
	}
	uploadStart := rt.Eng.Now()
	rt.UploadArtifacts(spec, func(err error) {
		rt.Trace.SpanSince(prof.Span, "client", "upload artifacts", "submit", uploadStart)
		if err != nil {
			notify(&Result{Spec: spec, Mode: mode.String(), Profile: prof, Err: err})
			return
		}
		rt.launchStockAM(spec, mode, prof, 1, notify)
	})
}

// launchStockAM runs one AM attempt of a cold submission. An attempt that
// dies with its machine is relaunched — partial output removed, same staged
// artifacts — up to Params.MaxAMAttempts times, mirroring YARN's
// yarn.resourcemanager.am.max-attempts; any other failure, or exhausting the
// budget, surfaces to the client.
func (rt *Runtime) launchStockAM(spec *JobSpec, mode Mode, prof *profiler.JobProfile, attempt int, notify func(*Result)) {
	var app *yarn.App
	finish := func(p *profiler.JobProfile, err error) {
		if errors.Is(err, ErrAMLost) && attempt < rt.Params.MaxAMAttempts {
			rt.Trace.Add("am", "job %q AM attempt %d lost with its node; relaunching", spec.Name, attempt)
			rt.RM.FinishApp(app)
			rt.DFS.DeletePrefix(spec.OutputFile)
			rt.launchStockAM(spec, mode, prof, attempt+1, notify)
			return
		}
		notify(&Result{Spec: spec, Mode: mode.String(), Profile: p, Err: err})
	}
	fail := func(err error) { finish(prof, err) }
	// AM startup: RM submission, AM container allocation + launch (those
	// spans nest here via app.Span), AM init, and localization.
	amSpan := rt.Trace.StartSpan(prof.Span, "am", "am-startup", "am",
		trace.A("attempt", fmt.Sprint(attempt)), trace.A("cold", "true"))
	app = rt.RM.SubmitAppInQueue(spec.Name, spec.Queue, rt.AMResource(), func(app *yarn.App, amC *yarn.Container) {
		amEpoch := amC.Node.Epoch()
		// The AM initializes: fixed init cost plus localizing the job
		// artifacts from HDFS.
		rt.Eng.After(rt.Params.AMInit, func() {
			if !amC.Node.AliveEpoch(amEpoch) {
				return
			}
			rt.Localize(spec, amC.Node, func(err error) {
				if !amC.Node.AliveEpoch(amEpoch) {
					return
				}
				if err != nil {
					fail(err)
					return
				}
				prof.AMReadyAt = rt.Eng.Now()
				prof.AMStartup = prof.AMReadyAt.Sub(prof.SubmittedAt)
				rt.Trace.EndSpan(amSpan)
				var am interface {
					Run(func(*profiler.JobProfile, error))
				}
				if mode.inAM {
					am, err = NewInAM(rt, spec, app, amC.Node, prof, mode.opts)
				} else {
					am, err = NewDistributedAM(rt, spec, app, amC.Node, prof)
				}
				if err != nil {
					fail(err)
					return
				}
				am.Run(finish)
			})
		})
	})
	// If the AM's node dies before the AM installs its own loss handler
	// (while the container launches, or during the AM's init/localization
	// above), the attempt is dead and the client must hear about it —
	// otherwise the job hangs forever. The AMs' Run() methods replace this
	// handler.
	app.OnContainerLost = func(c *yarn.Container) {
		if c.Tag == "am" {
			fail(ErrAMLost)
		}
	}
	// Nest the AM container's scheduling wait and launch under am-startup.
	app.Span = amSpan
}

// ClusterContainerSlots counts the task containers the cluster can hold, the
// n^c of the paper's estimator. It is the single shared helper for every
// layer that sizes work against the cluster (the stock submit path, the
// MRapid framework, and the JobServer's admission backpressure).
func ClusterContainerSlots(rt *Runtime) int {
	total := 0
	for _, n := range rt.Cluster.Workers() {
		total += n.Type.MaxContainers()
	}
	return total
}
