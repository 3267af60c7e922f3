package mapreduce

import (
	"errors"
	"fmt"

	"mrapid/internal/hdfs"
	"mrapid/internal/profiler"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

// amCore is the one ApplicationMaster lifecycle both AM shapes embed: the
// in-AM executor (stock Uber, U+) and the distributed AM (stock Hadoop, D+).
// It owns everything that does not depend on where tasks run — the committed
// map outputs, the shuffle read-back through the job's ShuffleProvider, the
// reduce partitions with their attempt budget, and the exactly-once
// finish/kill. A shape decides where maps run, names the node the reduce
// side lives on (reduceNode), says how a failed read-back is recovered
// (onFetchLost), and — the distributed AM only — throws the reduce side away
// when its container is lost (resetReduce).
type amCore struct {
	rt      *Runtime
	spec    *JobSpec
	app     *yarn.App
	prof    *profiler.JobProfile
	shuffle ShuffleProvider

	splits  []*hdfs.Split
	outputs []*MapOutput // committed map outputs, in commit order

	// failed counts each task's attempts that FAILED, the budget
	// MaxTaskAttempts bounds. Hadoop distinguishes FAILED from KILLED: a task
	// lost with its node is killed through no fault of its own and is never
	// charged here.
	failed map[taskID]int

	// The reduce side. reduceNode is nil until it can accept fetches.
	// reduceGen is bumped by resetReduce; completions that started under an
	// older generation fed a reduce attempt that no longer exists and are
	// dropped. fetched marks outputs a fetch has been issued for,
	// pendingGroups counts planned fetch units still in flight, and
	// reduceInputs collects what has fully arrived — the raw outputs, or
	// their per-node consolidation under the shuffle service.
	reduceNode    *topology.Node
	reduceGen     int
	reduceRunning bool
	reduceInputs  []*MapOutput
	fetched       map[*MapOutput]bool
	pendingGroups int

	// onFetchLost recovers a fetch unit whose source died before the data
	// arrived; teardown stops whatever the shape keeps running (heartbeat
	// ticker, cache gauge) when the job ends or is killed.
	onFetchLost func(group []*MapOutput, err error)
	teardown    func()

	killed bool
	done   func(*profiler.JobProfile, error)

	// OnMapComplete, when set before Run, observes every finished map task;
	// the speculative decision maker uses it to collect the profile samples
	// Equations 2 and 3 need.
	OnMapComplete func(*profiler.TaskProfile)
}

// newAMCore validates the job, plans its splits, and fills the profile
// fields every shape shares.
func newAMCore(rt *Runtime, spec *JobSpec, app *yarn.App, prof *profiler.JobProfile) (amCore, error) {
	if err := spec.Validate(); err != nil {
		return amCore{}, err
	}
	splits, err := rt.Splits(spec.InputFiles)
	if err != nil {
		return amCore{}, err
	}
	if len(splits) == 0 {
		return amCore{}, fmt.Errorf("mapreduce: job %q has no input splits", spec.Name)
	}
	prof.NumMaps = len(splits)
	prof.NumReduces = spec.NumReduces
	return amCore{
		rt: rt, spec: spec, app: app, prof: prof, shuffle: rt.shuffleProvider(), splits: splits,
		failed: make(map[taskID]int), fetched: make(map[*MapOutput]bool),
	}, nil
}

// start arms the AM: done fires once the job output is durable (or the job
// fails), onLost receives the RM's lost-container reports, and from here on
// container scheduling waits and launches nest under the job root span
// rather than the AM-startup span.
func (am *amCore) start(done func(*profiler.JobProfile, error), onLost func(*yarn.Container)) {
	if done == nil {
		panic("mapreduce: an AM's Run needs a completion callback")
	}
	am.done = done
	am.app.OnContainerLost = onLost
	am.app.Span = am.prof.Span
}

// Kill abandons the job: outstanding work is dropped and the RM releases the
// app's containers. Speculative execution cancels the slower mode with it.
func (am *amCore) Kill() {
	if am.killed {
		return
	}
	am.killed = true
	am.teardown()
	am.rt.RM.KillApp(am.app)
}

// Progress reports completed and total map counts, the signal the
// speculative decision maker polls.
func (am *amCore) Progress() (completed, total int) {
	return len(am.outputs), len(am.splits)
}

// attemptFailed ends a map or reduce attempt that returned err. A crash (an
// AttemptError) is charged to its task's failure budget; any other error,
// or a spent budget, fails the job. It reports whether the shape may retry.
func (am *amCore) attemptFailed(err error, tp *profiler.TaskProfile) (retry bool) {
	var ae *AttemptError
	if !errors.As(err, &ae) {
		am.finish(err)
		return false
	}
	am.prof.Add(tp)
	task := taskID{ae.Kind, ae.Index}
	am.failed[task]++
	if n := am.failed[task]; n >= am.rt.Params.MaxTaskAttempts {
		am.finish(fmt.Errorf("mapreduce: %s %d failed %d attempts: %w", ae.Kind, ae.Index, n, ae))
		return false
	}
	return true
}

// commitMap records a successfully finished map: its output joins the
// committed set and is registered with the shuffle provider.
func (am *amCore) commitMap(mo *MapOutput, tp *profiler.TaskProfile) {
	am.prof.Add(tp)
	am.outputs = append(am.outputs, mo)
	am.shuffle.Register(am.spec, mo)
	if len(am.outputs) == len(am.splits) {
		am.prof.MapsDoneAt = am.rt.Eng.Now()
	}
	if am.OnMapComplete != nil {
		am.OnMapComplete(tp)
	}
}

// pumpShuffle issues the read-back for every fetch unit the provider's plan
// says is ready — one fetch per (unit, partition): all partitions, because
// the one reduce side processes each in turn — and starts the reduce once
// everything has arrived. A unit whose fetch fails (its node died with the
// intermediate data, Hadoop's too-many-fetch-failures signal) goes to
// onFetchLost exactly once.
func (am *amCore) pumpShuffle() {
	if am.killed || am.reduceNode == nil {
		return
	}
	dst, gen := am.reduceNode, am.reduceGen
	var pending []*MapOutput
	for _, mo := range am.outputs {
		if !am.fetched[mo] {
			pending = append(pending, mo)
		}
	}
	for _, group := range am.shuffle.FetchPlan(pending, len(am.outputs) == len(am.splits)) {
		for _, mo := range group {
			am.fetched[mo] = true
		}
		cons := am.shuffle.Consolidate(am.spec, group)
		am.pendingGroups++
		remaining, failed := am.spec.NumReduces, false
		for p := 0; p < am.spec.NumReduces; p++ {
			am.shuffle.Fetch(am.prof.Span, am.spec, cons, p, dst, func(err error) {
				if am.killed || gen != am.reduceGen || failed {
					return
				}
				if err != nil {
					failed = true
					am.pendingGroups--
					am.onFetchLost(group, err)
					return
				}
				remaining--
				if remaining == 0 {
					am.pendingGroups--
					am.reduceInputs = append(am.reduceInputs, cons.Out)
					am.maybeReduce()
				}
			})
		}
	}
	am.maybeReduce()
}

// maybeReduce starts the reduce partitions once every map has committed and
// every committed output belongs to a fetch unit that has fully arrived.
func (am *amCore) maybeReduce() {
	if am.killed || am.reduceRunning || am.reduceNode == nil ||
		len(am.outputs) != len(am.splits) || am.pendingGroups > 0 {
		return
	}
	for _, mo := range am.outputs {
		if !am.fetched[mo] {
			return
		}
	}
	am.reduceRunning = true
	am.runReducePartitions(0)
}

// runReducePartitions runs partition p and then its successors on the reduce
// node, one at a time, and finishes the job after the last. A crashed
// attempt is retried in place — the shuffled data is already local — until
// MaxTaskAttempts is exhausted.
func (am *amCore) runReducePartitions(p int) {
	if am.killed {
		return
	}
	if p == am.spec.NumReduces {
		am.finish(nil)
		return
	}
	gen := am.reduceGen
	opts := TaskOptions{Attempt: am.failed[taskID{"reduce", p}], Parent: am.prof.Span}
	am.rt.RunReduceTask(am.spec, p, opts, am.reduceInputs, am.reduceNode, func(tp *profiler.TaskProfile, err error) {
		if am.killed || gen != am.reduceGen {
			return
		}
		if err != nil {
			if am.attemptFailed(err, tp) {
				am.runReducePartitions(p)
			}
			return
		}
		am.prof.Add(tp)
		am.runReducePartitions(p + 1)
	})
}

// resetReduce discards the reduce side after its node was lost: every fetch
// must be redone on the replacement, and completions still in flight for the
// old attempt are orphaned by the generation bump.
func (am *amCore) resetReduce() {
	am.reduceGen++
	am.reduceNode = nil
	am.reduceRunning = false
	am.reduceInputs = nil
	am.fetched = make(map[*MapOutput]bool)
	am.pendingGroups = 0
}

// finish ends the job exactly once, with err or cleanly: the job's
// intermediate data is garbage now and is withdrawn from the shuffle
// provider, the app is closed at the RM, and the submitter hears the outcome.
func (am *amCore) finish(err error) {
	if am.killed {
		return
	}
	am.killed = true
	am.teardown()
	for _, mo := range am.outputs {
		am.shuffle.Forget(am.spec, mo)
	}
	am.prof.DoneAt = am.rt.Eng.Now()
	am.rt.RM.FinishApp(am.app)
	am.done(am.prof, err)
}
