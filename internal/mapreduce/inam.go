package mapreduce

import (
	"mrapid/internal/hdfs"
	"mrapid/internal/profiler"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

// UberEligible implements Hadoop's own definition of a job small enough for
// Uber mode, as the paper quotes it: "a small job has less than 10 mappers,
// only 1 reducer, and the input size is less than the size of one HDFS
// block". MRapid deliberately does not rely on this rule — its decision
// maker compares estimated completion times instead — but the stock runtime
// exposes it so callers can reproduce Hadoop's behaviour.
func UberEligible(rt *Runtime, spec *JobSpec) (bool, error) {
	splits, err := rt.Splits(spec.InputFiles)
	if err != nil {
		return false, err
	}
	if len(splits) >= 10 || spec.NumReduces > 1 {
		return false, nil
	}
	var total int64
	for _, s := range splits {
		total += s.Length
	}
	return total < rt.Params.HDFSBlockBytes, nil
}

// InAMOptions are the two toggles that separate stock Uber from the paper's
// U+ mode (and that the Figure 15 ablation switches one at a time). The zero
// value is stock Uber — sequential maps, every output spilled; FullUPlus()
// is U+.
type InAMOptions struct {
	// ThreadsPerCore is n_c^m, the map threads multiplexed on each vcore;
	// maps per wave is n_u^m = n^c · n_c^m. Zero or negative means
	// sequential execution (stock Uber).
	ThreadsPerCore int

	// MemoryCache admits intermediate data into the in-heap cache (up to
	// the cost model's UberCacheBytes) instead of spilling to disk.
	MemoryCache bool
}

// FullUPlus returns the paper's complete U+ configuration.
func FullUPlus() InAMOptions {
	return InAMOptions{ThreadsPerCore: 1, MemoryCache: true}
}

// MapsPerWave returns n_u^m for an AM running on the given node.
func (o InAMOptions) MapsPerWave(node *topology.Node) int {
	if o.ThreadsPerCore <= 0 {
		return 1
	}
	return node.Cores.Total() * o.ThreadsPerCore
}

// InAM is the in-AM executor: every map task and the reduce run inside the
// AM's own container — no container request, no per-task JVM start, no
// network shuffle. With the zero options that is stock Uber: strictly
// sequential, all intermediate data spilled to the AM node's disk. U+ lifts
// both weaknesses: maps run n_u^m per wave, and small outputs stay in the
// heap so the reduce reads them without touching the disk.
type InAM struct {
	amCore
	amNode *topology.Node
	opts   InAMOptions

	next     int
	inFlight int

	// cache is the in-heap budget (UberCacheBytes); admitted remembers how
	// many of its bytes each split's attempt charged, so a crashed attempt
	// refunds them before the retry.
	cache    topology.Budget
	admitted map[int]int64
}

// NewInAM prepares an in-AM executor on the node where the AM container
// (cold-submitted or pooled) runs.
func NewInAM(rt *Runtime, spec *JobSpec, app *yarn.App, amNode *topology.Node, prof *profiler.JobProfile, opts InAMOptions) (*InAM, error) {
	core, err := newAMCore(rt, spec, app, prof)
	if err != nil {
		return nil, err
	}
	prof.NumContainers = 1
	am := &InAM{amCore: core, amNode: amNode, opts: opts, admitted: make(map[int]int64),
		cache: topology.Budget{Cap: rt.Params.UberCacheBytes}}
	// The reduce runs where the maps ran, and every output lives there too:
	// a read-back that fails means the AM node itself died, which kills the
	// attempt.
	am.reduceNode = amNode
	am.onFetchLost = func(_ []*MapOutput, err error) { am.finish(err) }
	am.teardown = am.releaseCache
	return am, nil
}

// Run starts the map waves.
func (am *InAM) Run(done func(*profiler.JobProfile, error)) {
	// A cold-submitted job owns its AM container through this app; losing it
	// loses the attempt, and the submitter decides whether to relaunch. (A
	// pooled job's app owns no containers — the AM container belongs to the
	// pool's app, which notifies the framework.)
	am.start(done, func(*yarn.Container) { am.finish(ErrAMLost) })
	am.rt.inAMs[am] = struct{}{}
	am.prof.FirstTaskAt = am.rt.Eng.Now()
	am.pump()
}

// pump keeps up to n_u^m map tasks in flight.
func (am *InAM) pump() {
	if am.killed {
		return
	}
	limit := am.opts.MapsPerWave(am.amNode)
	for am.inFlight < limit && am.next < len(am.splits) {
		s := am.splits[am.next]
		am.next++
		am.inFlight++
		am.runOne(s)
	}
}

// admitToCache decides whether a finished map's output fits the remaining
// cache budget; if so the budget is consumed on the split's account.
func (am *InAM) admitToCache(split int, outBytes int64) bool {
	if !am.opts.MemoryCache || !am.cache.Admit(outBytes) {
		return false
	}
	am.admitted[split] = outBytes
	am.rt.Reg.GaugeHandle("uplus_cache_bytes").Add(outBytes)
	return true
}

// refundCache returns n cache bytes, and their share of the cluster-wide
// uplus_cache_bytes gauge. An AM that never admitted a byte leaves the gauge
// alone, so a stock-Uber run does not mint the series.
func (am *InAM) refundCache(n int64) {
	if n > 0 {
		am.cache.Refund(n)
		am.rt.Reg.GaugeHandle("uplus_cache_bytes").Add(-n)
	}
}

// releaseCache empties the cache when the job ends (finished or killed):
// the in-heap outputs are freed with the JVM.
func (am *InAM) releaseCache() {
	am.refundCache(am.cache.Used())
	delete(am.rt.inAMs, am)
}

func (am *InAM) runOne(s *hdfs.Split) {
	opts := TaskOptions{
		KeepInMemory: func(b int64) bool { return am.admitToCache(s.Index, b) },
		Attempt:      am.failed[taskID{"map", s.Index}],
		Parent:       am.prof.Span,
	}
	am.rt.RunMapTask(am.spec, s, am.amNode, opts, func(mo *MapOutput, tp *profiler.TaskProfile, err error) {
		if am.killed {
			return
		}
		if err != nil {
			// A crashed map thread is retried in place, in its wave slot
			// (any other error fails the job). Any cache budget the dead
			// attempt admitted is refunded first — its in-heap output died
			// with it, and without the refund every crashed-and-retried map
			// would leak budget until U+ degrades to spilling everything.
			am.refundCache(am.admitted[s.Index])
			delete(am.admitted, s.Index)
			if am.attemptFailed(err, tp) {
				am.runOne(s)
			}
			return
		}
		am.inFlight--
		am.commitMap(mo, tp)
		if am.killed {
			// The observer may have killed this mode.
			return
		}
		if len(am.outputs) == len(am.splits) {
			// The in-AM reduce has no process of its own to overlap the map
			// waves with: the read-back starts once the last map is in.
			am.pumpShuffle()
			return
		}
		am.pump()
	})
}
