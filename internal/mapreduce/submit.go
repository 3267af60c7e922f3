package mapreduce

import (
	"errors"
	"fmt"

	"mrapid/internal/profiler"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
	"mrapid/internal/yarn"
)

// Mode selects the ApplicationMaster a submission runs — the distributed AM, or
// the in-AM executor with some options — and labels results, profiles, spans.
type Mode struct {
	name string
	inAM bool
	opts InAMOptions
}

// The distributed AM under its stock and its MRapid name (D+ is the scheduler
// and the AM's source, not the AM), and stock Uber: in-AM with zero options.
var (
	ModeDistributed = Mode{name: "hadoop"}
	ModeDPlus       = Mode{name: "dplus"}
	ModeUber        = Mode{name: "uber", inAM: true}
)

// ModeUPlus is the in-AM executor with the given U+ options.
func ModeUPlus(opts InAMOptions) Mode { return Mode{name: "uplus", inAM: true, opts: opts} }

func (m Mode) String() string { return m.name }

// AM is the runnable ApplicationMaster both shapes satisfy: Run executes the
// job and reports once the output is durable, Kill abandons the attempt.
type AM interface {
	Run(done func(*profiler.JobProfile, error))
	Kill()
}

// newAM constructs the mode's AM on the node its process runs on.
func (m Mode) newAM(rt *Runtime, spec *JobSpec, app *yarn.App, node *topology.Node,
	prof *profiler.JobProfile, onMap func(*profiler.TaskProfile)) (AM, error) {
	if m.inAM {
		am, err := NewInAM(rt, spec, app, node, prof, m.opts)
		if err != nil {
			return nil, err
		}
		am.OnMapComplete = onMap
		return am, nil
	}
	am, err := NewDistributedAM(rt, spec, app, node, prof)
	if err != nil {
		return nil, err
	}
	am.OnMapComplete = onMap
	return am, nil
}

// Result is the outcome of one job execution.
type Result struct {
	Spec    *JobSpec
	Mode    string
	Profile *profiler.JobProfile
	Err     error
}

// Elapsed returns the job's completion time (0 for no result or no profile).
func (r *Result) Elapsed() float64 {
	if r == nil || r.Profile == nil {
		return 0
	}
	return r.Profile.Elapsed().Seconds()
}

// AMSource is where a submission's ApplicationMaster process comes from — the
// one behaviour the lifecycle is parameterised by: launched cold through the RM
// (Figure 1) or handed out warm by the MRapid proxy (Figure 5). A source brings
// one process up for an attempt, nests its spans under prof.Span and sets
// prof.AMPoolHit. up fires once the process holds the localized artifacts, with
// the job's app and the process's node, or with the error that stopped it; lost
// fires if the process dies with its node while the source watches it. release
// gives it back when the attempt ends; nil: none to offer, nothing started.
type AMSource func(spec *JobSpec, prof *profiler.JobProfile, attempt int,
	up func(app *yarn.App, node *topology.Node, err error), lost func()) (release func())

// coldAM is the cold source, Figure 1's steps 2–4: submit to the RM, wait for
// the AM container's allocation and launch, initialize, localize. It watches the
// process (the app's only container) until the AM's Run installs its own loss
// handler, or a job whose AM dies starting up would hang.
func (rt *Runtime) coldAM(spec *JobSpec, prof *profiler.JobProfile, attempt int,
	up func(*yarn.App, *topology.Node, error), lost func()) func() {
	prof.AMPoolHit = false
	// The AM container's scheduling wait and launch nest here via app.Span.
	span := rt.Trace.StartSpan(prof.Span, "am", "am-startup", "am",
		trace.A("attempt", fmt.Sprint(attempt)), trace.A("cold", "true"))
	app := rt.RM.SubmitAppInQueue(spec.Name, spec.Queue, rt.AMResource(), func(app *yarn.App, amC *yarn.Container) {
		epoch := amC.Node.Epoch()
		rt.Eng.After(rt.Params.AMInit, func() {
			if !amC.Node.AliveEpoch(epoch) {
				return
			}
			rt.Localize(spec, amC.Node, func(err error) {
				if !amC.Node.AliveEpoch(epoch) {
					return
				}
				rt.Trace.EndSpan(span)
				up(app, amC.Node, err)
			})
		})
	})
	app.OnContainerLost = func(*yarn.Container) { lost() }
	app.Span = span
	return func() { rt.RM.FinishApp(app) }
}

// Submission is one job's trip through the submission lifecycle — stage (root
// span, artifact upload), attempts (an AM process from the source, the mode's
// AM on it, run; again from scratch while the AM is lost with its node and
// Params.MaxAMAttempts allows), notification — and the handle on it. One profile
// and one span cover all attempts. Set the exported fields, then Start it once.
type Submission struct {
	Mode   Mode
	Source AMSource // nil is the cold source
	// Poll makes the client learn of completion at its next status poll even
	// when a pooled AM could report it over the proxy's RPC (an ablation). A
	// cold AM knows no proxy: its client always polls.
	Poll bool
	// OnMap, when set, observes every finished map task.
	OnMap func(*profiler.TaskProfile)
	// OnAMLost, when set, is asked before an attempt that lost its AM is
	// relaunched; false surfaces ErrAMLost to the submitter instead.
	OnAMLost func() bool

	rt       *Runtime
	spec     *JobSpec
	done     func(*Result)
	prof     *profiler.JobProfile
	root     trace.SpanID // the root span, when this submission staged the job
	attempts int
	killed   bool
	kill     func(error) // ends the running attempt; nil until its AM is up
}

// Submit runs the classic Hadoop submission flow (Figure 1): upload, a cold AM,
// the job in the requested mode, the outcome seen at the client's next poll.
func Submit(rt *Runtime, spec *JobSpec, mode Mode, done func(*Result)) {
	(&Submission{Mode: mode}).Start(rt, spec, done)
}

// Start stages the job and runs it through the lifecycle. done fires with the
// result once the output is durable and the client has been told.
func (s *Submission) Start(rt *Runtime, spec *JobSpec, done func(*Result)) {
	s.init(rt, spec, done)
	Stage(rt, spec, s.Mode.String(), func(root trace.SpanID, err error) {
		s.root = root
		s.run(root, err)
	})
}

// StartStaged is Start for a job already staged under someone else's root
// span: the speculative race stages once for its two modes.
func (s *Submission) StartStaged(rt *Runtime, spec *JobSpec, root trace.SpanID, done func(*Result)) {
	s.init(rt, spec, done)
	s.run(root, nil)
}

func (s *Submission) init(rt *Runtime, spec *JobSpec, done func(*Result)) {
	if done == nil {
		panic("mapreduce: a submission needs a completion callback")
	}
	s.rt, s.spec, s.done = rt, spec, done
	s.prof = &profiler.JobProfile{Job: spec.Key(), Mode: s.Mode.String(), SubmittedAt: rt.Eng.Now()}
}

// Stage is step 1: the job's root span opens and the client uploads the artifacts.
func Stage(rt *Runtime, spec *JobSpec, mode string, staged func(root trace.SpanID, err error)) {
	root := rt.Trace.StartSpan(0, "job", spec.Name, "", trace.A("mode", mode))
	start := rt.Eng.Now()
	rt.UploadArtifacts(spec, func(err error) {
		rt.Trace.SpanSince(root, "client", "upload artifacts", "submit", start)
		staged(root, err)
	})
}

// run takes the staged job through its attempts. prof.Span covers exactly
// [SubmittedAt, DoneAt], so the analyzer's phases sum to the job's wall clock.
func (s *Submission) run(root trace.SpanID, err error) {
	s.prof.Span = root
	if s.Source != nil {
		// A job that goes through the proxy is measured from the instant the
		// staged job is handed over, a cold one from before staging (DESIGN §7).
		s.prof.SubmittedAt = s.rt.Eng.Now()
		s.prof.Span = s.rt.Trace.StartSpan(root, "job", s.spec.Name+" ("+s.Mode.String()+")", "")
	}
	if err != nil {
		s.notify(err)
		return
	}
	s.attempt()
}

// attempt runs the job once: an AM process from the source, the mode's AM on
// it, and the job. A submission whose source declines continues on the cold
// source, this attempt and any later one.
func (s *Submission) attempt() {
	s.attempts++
	var am AM
	var release func()
	over := false
	// end finishes the attempt once: work it still has out is killed (a no-op
	// for an AM that finished) and the process goes back to its source. One
	// that died with its AM's machine is relaunched — partial output removed,
	// same staged artifacts, same profile — like YARN's am.max-attempts; any
	// other outcome, or a spent budget, goes to the client.
	end := func(err error) {
		if over {
			return
		}
		over, s.kill = true, nil
		if am != nil {
			am.Kill()
		}
		release()
		s.prof.DoneAt = s.rt.Eng.Now()
		switch {
		case s.killed:
			// A speculative loser's span is closed at the kill instant.
			s.rt.Trace.EndSpan(s.prof.Span, trace.A("killed", "true"))
		case errors.Is(err, ErrAMLost) && s.attempts < s.rt.Params.MaxAMAttempts &&
			(s.OnAMLost == nil || s.OnAMLost()):
			s.rt.Trace.Add("am", "job %s attempt %d lost its AM; relaunching", s.spec.Name, s.attempts)
			s.rt.DeleteOutputPrefix(s.spec.OutputFile)
			s.attempt()
		default:
			s.notify(err)
		}
	}
	up := func(app *yarn.App, node *topology.Node, err error) {
		if over {
			return
		}
		if err == nil {
			s.prof.AMReadyAt = s.rt.Eng.Now()
			s.prof.AMStartup = s.prof.AMReadyAt.Sub(s.prof.SubmittedAt)
			am, err = s.Mode.newAM(s.rt, s.spec, app, node, s.prof, s.OnMap)
		}
		if err != nil || s.killed {
			end(err)
			return
		}
		s.kill = end
		am.Run(func(_ *profiler.JobProfile, err error) { end(err) })
	}
	lost := func() { end(ErrAMLost) }
	if s.Source != nil {
		if release = s.Source(s.spec, s.prof, s.attempts, up, lost); release == nil {
			s.Source = nil
		}
	}
	if s.Source == nil {
		release = s.rt.coldAM(s.spec, s.prof, s.attempts, up, lost)
	}
}

// notify tells the client: over the proxy's RPC at once, or at its next poll.
func (s *Submission) notify(err error) {
	res := &Result{Spec: s.spec, Mode: s.Mode.String(), Profile: s.prof, Err: err}
	deliver := func() {
		s.rt.Trace.EndSpan(s.prof.Span)
		s.rt.Trace.EndSpan(s.root)
		s.done(res)
	}
	if !s.Poll && s.Source != nil {
		deliver()
		return
	}
	pollStart := s.rt.Eng.Now()
	s.rt.PollAlignedNotify(s.prof.SubmittedAt, func() {
		s.prof.DoneAt = s.rt.Eng.Now()
		s.rt.Trace.SpanSince(s.prof.Span, "client", "poll wait", "notify", pollStart)
		deliver()
	})
}

// Kill abandons the submission: the running attempt is stopped as soon as its
// AM is up, nothing is relaunched, and done hears nothing more.
func (s *Submission) Kill() {
	s.killed = true
	if s.kill != nil {
		s.kill(nil)
	}
}

// ClusterContainerSlots counts the task containers the cluster can hold (the
// estimator's n^c): the one helper for every layer that sizes work against it.
func ClusterContainerSlots(rt *Runtime) int {
	total := 0
	for _, n := range rt.Cluster.Workers() {
		total += n.Type.MaxContainers()
	}
	return total
}
