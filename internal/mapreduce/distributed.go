package mapreduce

import (
	"errors"
	"fmt"

	"mrapid/internal/hdfs"
	"mrapid/internal/profiler"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
	"mrapid/internal/yarn"
)

// DistributedAM is the distributed-mode ApplicationMaster: it requests one
// container per map task (with locality preferences from the split replica
// locations) plus one per reduce, assigns granted containers to the
// best-matching pending task, overlaps the shuffle with remaining map
// waves, and runs the reduce once all map outputs are fetched.
//
// The same AM serves stock Hadoop and MRapid's D+ mode: the difference
// between them lives in the RM's scheduler and in how the AM itself was
// brought up (cold submission vs. the AM pool).
type DistributedAM struct {
	amCore

	pendingMaps  []*hdfs.Split
	containerRes topology.Resource

	// mapAttempts are the next attempt ordinals (unique attempt IDs). They
	// advance on every reschedule, including the ones node loss forces, which
	// the core's failure budget never sees.
	mapAttempts map[int]int
	retryAsks   []*yarn.Ask

	// runningMaps tracks which split each live map container is executing so
	// a lost-container report can requeue exactly the stranded work.
	runningMaps map[*yarn.Container]*hdfs.Split

	reduceContainer *yarn.Container

	ticker      *sim.Ticker
	sentMapAsks bool
}

// NewDistributedAM prepares a distributed-mode AM. The caller has already
// brought the AM process up (cold or pooled) on amNode and charged that
// cost; prof carries the submission timestamps.
func NewDistributedAM(rt *Runtime, spec *JobSpec, app *yarn.App, amNode *topology.Node, prof *profiler.JobProfile) (*DistributedAM, error) {
	core, err := newAMCore(rt, spec, app, prof)
	if err != nil {
		return nil, err
	}
	prof.NumContainers = ClusterContainerSlots(rt)
	am := &DistributedAM{
		amCore:       core,
		pendingMaps:  append([]*hdfs.Split(nil), core.splits...),
		containerRes: amNode.Type.ContainerResource(),
		mapAttempts:  make(map[int]int),
		runningMaps:  make(map[*yarn.Container]*hdfs.Split),
	}
	// A fetch unit that fails means its source node died with every output
	// in it: each member is declared lost and re-executed, and the next pump
	// plans the replacements.
	am.onFetchLost = func(group []*MapOutput, _ error) {
		for _, mo := range group {
			am.loseMapOutput(mo)
		}
	}
	am.teardown = func() {
		if am.ticker != nil {
			am.ticker.Stop()
		}
	}
	return am, nil
}

// Run starts the AM's allocate-heartbeat loop. done fires once the job
// output is durable in HDFS (or the job fails or is killed).
func (am *DistributedAM) Run(done func(*profiler.JobProfile, error)) {
	am.start(done, am.onContainerLost)
	am.heartbeat() // first allocate immediately after AM init
	am.ticker = am.rt.Eng.Every(am.rt.Params.AMHeartbeat, am.heartbeat)
}

func (am *DistributedAM) heartbeat() {
	if am.killed {
		return
	}
	asks := append(am.buildAsks(), am.retryAsks...)
	am.retryAsks = nil
	am.rt.RM.Allocate(am.app, asks, func(granted []*yarn.Container) {
		if am.killed {
			return
		}
		for _, c := range granted {
			am.place(c)
		}
	})
}

// buildAsks emits, once, one ask per map task with locality preferences
// plus the reduce container ask. A short job's single reducer clears the
// default slow-start threshold (5% of a handful of maps) immediately, so
// Hadoop's allocator ramps it up with the first request — starting the
// reducer early is what lets the shuffle overlap the remaining map waves
// (the overlap Equations 1 and 3 assume).
func (am *DistributedAM) buildAsks() []*yarn.Ask {
	if am.sentMapAsks {
		return nil
	}
	am.sentMapAsks = true
	var asks []*yarn.Ask
	for _, s := range am.splits {
		racks := make([]string, 0, len(s.Hosts))
		for _, h := range s.Hosts {
			racks = append(racks, h.Rack)
		}
		asks = append(asks, &yarn.Ask{
			App:            am.app,
			Resource:       am.containerRes,
			PreferredNodes: s.Hosts,
			PreferredRacks: racks,
			Tag:            fmt.Sprintf("map-%d", s.Index),
		})
	}
	for p := 0; p < am.spec.NumReduces; p++ {
		asks = append(asks, &yarn.Ask{
			App:      am.app,
			Resource: am.containerRes,
			Tag:      fmt.Sprintf("reduce-%d", p),
		})
	}
	return asks
}

// place assigns a granted container to work: reduce containers start the
// reduce side, map containers take the best-locality pending split.
func (am *DistributedAM) place(c *yarn.Container) {
	if len(c.Tag) >= 6 && c.Tag[:6] == "reduce" {
		am.startReduceContainer(c)
		return
	}
	s := am.takeBestSplit(c.Node)
	if s == nil {
		// Nothing left to run (maps finished while this grant was in
		// flight): hand the container straight back.
		am.rt.RM.ReleaseContainer(c)
		return
	}
	// Bind the split to the container before the start RPC: if the node dies
	// from here on, the lost-container report tells us exactly which split to
	// requeue.
	am.runningMaps[c] = s
	nm := am.rt.RM.NMOn(c.Node)
	nm.StartContainer(c, false, func() {
		if am.killed {
			am.rt.RM.ReleaseContainer(c)
			return
		}
		am.rt.Localize(am.spec, c.Node, func(err error) {
			if err != nil {
				am.finish(err)
				return
			}
			am.runMap(c, s)
		})
	})
}

// takeBestSplit pops the pending split with the best locality for node:
// node-local first, then rack-local, then the oldest pending.
func (am *DistributedAM) takeBestSplit(node *topology.Node) *hdfs.Split {
	best, bestRank := -1, 3
	for i, s := range am.pendingMaps {
		rank := 2
		if s.HostedOn(node) {
			rank = 0
		} else if s.RackLocalTo(node) {
			rank = 1
		}
		if rank < bestRank {
			best, bestRank = i, rank
			if rank == 0 {
				break
			}
		}
	}
	if best < 0 {
		return nil
	}
	s := am.pendingMaps[best]
	am.pendingMaps = append(am.pendingMaps[:best], am.pendingMaps[best+1:]...)
	return s
}

func (am *DistributedAM) runMap(c *yarn.Container, s *hdfs.Split) {
	if am.prof.FirstTaskAt == 0 {
		am.prof.FirstTaskAt = am.rt.Eng.Now()
	}
	attempt := am.mapAttempts[s.Index]
	opts := TaskOptions{Attempt: attempt, Parent: am.prof.Span}
	am.rt.RunMapTask(am.spec, s, c.Node, opts, func(mo *MapOutput, tp *profiler.TaskProfile, err error) {
		if am.killed {
			am.rt.RM.ReleaseContainer(c)
			return
		}
		if errors.As(err, new(*AttemptError)) {
			// The attempt crashed: give the container back, record the
			// failed attempt, and reschedule on a fresh container unless
			// the attempt budget is exhausted (Hadoop's maxattempts).
			delete(am.runningMaps, c)
			am.rt.RM.ReleaseContainer(c)
			if am.attemptFailed(err, tp) {
				am.rescheduleMap(s, "attempt failed")
			}
			return
		}
		if err != nil {
			am.finish(err)
			return
		}
		// Commit handshake with the AM, then the container is released (a
		// fresh one is requested per task, as in MRv2).
		commitStart := am.rt.Eng.Now()
		am.rt.Eng.After(am.rt.Params.TaskCommit, func() {
			if am.killed {
				am.rt.RM.ReleaseContainer(c)
				return
			}
			if _, ok := am.runningMaps[c]; !ok {
				// The node (and this container) died during the commit
				// handshake: the RM already reported the loss and the task
				// was rescheduled. Drop the stale completion.
				return
			}
			delete(am.runningMaps, c)
			am.rt.RM.ReleaseContainer(c)
			am.rt.Trace.SpanSince(am.prof.Span, "am",
				fmt.Sprintf("commit map-%d", s.Index), "commit", commitStart)
			am.commitMap(mo, tp)
			// The reduce container is asked for with the maps, so the shuffle
			// overlaps the remaining map waves.
			am.pumpShuffle()
		})
	})
}

func (am *DistributedAM) startReduceContainer(c *yarn.Container) {
	if am.reduceContainer != nil {
		// Only single-reduce jobs are exercised by the paper's experiments;
		// extra grants are returned. (NumReduces > 1 still works: each
		// partition reuses the one reduce container serially.)
		am.rt.RM.ReleaseContainer(c)
		return
	}
	am.reduceContainer = c
	nm := am.rt.RM.NMOn(c.Node)
	nm.StartContainer(c, false, func() {
		if am.killed {
			am.rt.RM.ReleaseContainer(c)
			return
		}
		am.rt.Localize(am.spec, c.Node, func(err error) {
			if err != nil {
				am.finish(err)
				return
			}
			am.reduceNode = c.Node
			am.pumpShuffle()
		})
	})
}

// loseMapOutput handles a completed map whose output died with its node:
// the map reverts to incomplete and is re-executed on a fresh container.
func (am *DistributedAM) loseMapOutput(mo *MapOutput) {
	for i, x := range am.outputs {
		if x == mo {
			am.outputs = append(am.outputs[:i], am.outputs[i+1:]...)
			delete(am.fetched, mo)
			am.shuffle.Forget(am.spec, mo)
			if am.rt.Trace != nil {
				am.rt.Trace.Mark(am.prof.Span, "am", "map output lost",
					trace.A("map", fmt.Sprint(mo.Split.Index)), trace.A("node", mo.Node.Name))
			}
			am.rescheduleMap(mo.Split, "output lost")
			return
		}
	}
}

// rescheduleMap requeues a split and asks for a replacement container with
// the split's locality preferences. The attempt ordinal advances (attempt
// IDs are never reused) but the failure budget is only charged by the
// AttemptError path in runMap — a task killed by node loss is KILLED, not
// FAILED, in Hadoop's accounting.
func (am *DistributedAM) rescheduleMap(s *hdfs.Split, why string) {
	am.mapAttempts[s.Index]++
	am.pendingMaps = append(am.pendingMaps, s)
	racks := make([]string, 0, len(s.Hosts))
	for _, h := range s.Hosts {
		racks = append(racks, h.Rack)
	}
	am.retryAsks = append(am.retryAsks, &yarn.Ask{
		App:            am.app,
		Resource:       am.containerRes,
		PreferredNodes: s.Hosts,
		PreferredRacks: racks,
		Tag:            fmt.Sprintf("map-%d-attempt-%d", s.Index, am.mapAttempts[s.Index]),
	})
	if am.rt.Trace != nil {
		am.rt.Trace.Mark(am.prof.Span, "am", "map rescheduled", trace.A("map", fmt.Sprint(s.Index)),
			trace.A("why", why), trace.A("attempt", fmt.Sprint(am.mapAttempts[s.Index])))
	}
}

// onContainerLost is the RM's report that one of this job's containers
// vanished with its node. In-flight maps requeue their split; the reduce
// container triggers a full reshuffle onto a replacement; a cold-submitted
// AM's own container means the job attempt itself is gone.
func (am *DistributedAM) onContainerLost(c *yarn.Container) {
	if am.killed {
		return
	}
	if am.rt.Trace != nil {
		am.rt.Trace.Mark(am.prof.Span, "am", "lost container", trace.A("container", c.String()))
	}
	if c.Tag == "am" {
		// Our own AM container (cold submission): the whole attempt dies;
		// the submitter decides whether to relaunch.
		am.finish(ErrAMLost)
		return
	}
	if s, ok := am.runningMaps[c]; ok {
		delete(am.runningMaps, c)
		am.rescheduleMap(s, "node lost")
		return
	}
	if c == am.reduceContainer {
		am.recoverReduce()
		return
	}
	if len(c.Tag) >= 6 && c.Tag[:6] == "reduce" {
		// A reduce grant lost before it was started: ask again.
		am.retryAsks = append(am.retryAsks, &yarn.Ask{
			App:      am.app,
			Resource: am.containerRes,
			Tag:      "reduce-recovery",
		})
		return
	}
	// A map grant that died before being bound to a split (it sat in the
	// RM's undelivered-grant buffer): some pending split now has no
	// container coming, so request a replacement.
	am.retryAsks = append(am.retryAsks, &yarn.Ask{
		App:      am.app,
		Resource: am.containerRes,
		Tag:      "map-replacement",
	})
}

// recoverReduce restarts the reduce side after its container was lost:
// every fetch must be redone on the replacement node, and any partition
// files a previous attempt already committed are removed so the re-run's
// writes don't collide. Node loss does not charge the reduce failure
// budget (KILLED, not FAILED).
func (am *DistributedAM) recoverReduce() {
	am.reduceContainer = nil
	am.resetReduce()
	for p := 0; p < am.spec.NumReduces; p++ {
		am.rt.DeleteOutput(PartFileName(am.spec.OutputFile, p))
	}
	am.retryAsks = append(am.retryAsks, &yarn.Ask{
		App:      am.app,
		Resource: am.containerRes,
		Tag:      "reduce-recovery",
	})
	if am.rt.Trace != nil {
		am.rt.Trace.Mark(am.prof.Span, "am", "reduce container lost", trace.A("gen", fmt.Sprint(am.reduceGen)))
	}
}
