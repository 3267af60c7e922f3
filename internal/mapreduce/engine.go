package mapreduce

import (
	"errors"
	"fmt"
	"time"

	"mrapid/internal/costmodel"
	"mrapid/internal/hdfs"
	"mrapid/internal/metrics"
	"mrapid/internal/profiler"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
	"mrapid/internal/yarn"
)

// Runtime bundles the substrate a job executes on. One Runtime corresponds
// to one simulated cluster with its filesystem and resource manager.
type Runtime struct {
	Eng     *sim.Engine
	Cluster *topology.Cluster
	DFS     *hdfs.DFS
	RM      *yarn.RM
	Params  costmodel.Params

	// MapCache, when non-nil, memoizes pure ExecMap results across runs
	// over byte-identical inputs (see MapCache). It changes host CPU time
	// only, never simulated results.
	MapCache *MapCache

	// Faults, when non-nil, crashes the task attempts it scripts. A scripted
	// crash and a panic in user code fail their attempt alike: AMs retry it
	// up to Params.MaxTaskAttempts, then fail the job with ErrTaskFailed.
	Faults *FaultInjector

	// Trace, when non-nil, records task lifecycle events and spans.
	Trace *trace.Log

	// Reg, when non-nil, receives task-duration and shuffle-byte
	// histograms and task counters. Every observation comes from the engine
	// goroutine; the registry's own locking lets a reader on another
	// goroutine snapshot it mid-run.
	Reg *metrics.Registry

	// Intermediates, when non-nil, holds intra-query intermediate tables
	// outside HDFS (see IntermediateStore): jobs marked
	// spec.IntermediateOutput commit reduce outputs there, and Splits /
	// ReadSplit resolve inputs against it before falling through to HDFS.
	Intermediates *IntermediateStore

	// Shuffle, when non-nil, is the per-node shuffle service
	// (internal/shuffle): AMs register committed map outputs with it and
	// reducers fetch one consolidated result per (node, partition) through
	// it instead of one FetchPartition per (map, partition). Nil keeps the
	// stock per-map shuffle.
	Shuffle ShuffleProvider

	// shuffleInFlight is the byte-count of shuffle fetches currently
	// running (see ShuffleBytesInFlight).
	shuffleInFlight int64

	// inAMs is the set of running in-AM executors, each holding a cache
	// budget until its teardown (see CheckResidency).
	inAMs map[*InAM]struct{}

	// zeros is the one immutable all-zero buffer every staged job artifact
	// is a view of (see UploadArtifacts).
	zeros []byte

	// h caches pre-resolved metric handles for the per-attempt and
	// per-fetch paths; see handles().
	h rtHandles
}

// rtHandles holds the runtime's pre-resolved metric handles: the four
// kind×outcome task-attempt counters, the two task-duration histograms, and
// the transport/kind-keyed shuffle series (bound on first sight of each
// label value). Reg is a public field assigned after construction, so
// handles() rebinds whenever it changes.
type rtHandles struct {
	src           *metrics.Registry
	mapOK         metrics.Counter
	mapFailed     metrics.Counter
	reduceOK      metrics.Counter
	reduceFailed  metrics.Counter
	mapSeconds    metrics.Observer
	reduceSeconds metrics.Observer
	shuffleBytes  map[string]metrics.Observer // by transport
	shuffleFetch  map[string]metrics.Counter  // by kind+transport
}

func (rt *Runtime) handles() *rtHandles {
	if rt.h.src != rt.Reg {
		rt.h = rtHandles{
			src:           rt.Reg,
			mapOK:         rt.Reg.CounterHandle("mapreduce_task_attempts_total", "kind", "map", "outcome", "ok"),
			mapFailed:     rt.Reg.CounterHandle("mapreduce_task_attempts_total", "kind", "map", "outcome", "failed"),
			reduceOK:      rt.Reg.CounterHandle("mapreduce_task_attempts_total", "kind", "reduce", "outcome", "ok"),
			reduceFailed:  rt.Reg.CounterHandle("mapreduce_task_attempts_total", "kind", "reduce", "outcome", "failed"),
			mapSeconds:    rt.Reg.HistogramHandle("mapreduce_task_seconds", "kind", "map"),
			reduceSeconds: rt.Reg.HistogramHandle("mapreduce_task_seconds", "kind", "reduce"),
			shuffleBytes:  make(map[string]metrics.Observer),
			shuffleFetch:  make(map[string]metrics.Counter),
		}
	}
	return &rt.h
}

// NewRuntime wires a runtime together.
func NewRuntime(eng *sim.Engine, cluster *topology.Cluster, dfs *hdfs.DFS, rm *yarn.RM, params costmodel.Params) *Runtime {
	return &Runtime{Eng: eng, Cluster: cluster, DFS: dfs, RM: rm, Params: params, inAMs: make(map[*InAM]struct{})}
}

// AMResource returns the ApplicationMaster container request. It comes from
// the job configuration (Params), never from any particular node's shape:
// deriving it from Workers()[0] gives the wrong answer on heterogeneous
// clusters.
func (rt *Runtime) AMResource() topology.Resource {
	return topology.Resource{VCores: rt.Params.AMContainerVCores, MemoryMB: rt.Params.AMContainerMB}
}

// MapOutput is the materialized result of one map task: real intermediate
// pairs bucketed by reduce partition, each bucket sorted by key then value.
// The pairs are flat and counted (see record.go): len(Partitions[p]) counts
// partition p's distinct pairs, while PartBytes and TotalBytes count every
// occurrence. Once built an output's pairs never change, so reduces, the
// shuffle service and the MapCache read one concurrently.
type MapOutput struct {
	Split      *hdfs.Split
	Partitions [][]Rec
	counts     [][]uint32 // per partition, parallel to Partitions; nil while every count is 1
	PartBytes  []int64
	TotalBytes int64
	Records    int64

	// Resident is where the output lives: the task node's local disk, or the
	// AM heap for outputs the U+ memory cache admitted (InMemory) — never
	// HDFS, so it is gone once that node crashes. Outputs computed outside a
	// task (ExecMap) have no holder.
	topology.Resident

	store

	// cached is the MapCache key the output was stored or found under; nil
	// when it did not come through the cache. A reduce whose every input has
	// one is keyed by them (see reduceKey).
	cached *cacheKey
}

// ErrOutputLost is reported by FetchPartition when a completed map's output
// vanished with its node — Hadoop's too-many-fetch-failures signal, which
// makes the AM re-execute the map.
var ErrOutputLost = errors.New("mapreduce: map output lost with its node")

// ErrAMLost reports that a job's ApplicationMaster died with its node. The
// submission framework treats it as retryable: the job is relaunched from
// scratch up to MaxAMAttempts times (yarn.resourcemanager.am.max-attempts).
var ErrAMLost = errors.New("mapreduce: application master lost with its node")

// ExecMap runs the map function for real over split data: scan records,
// map, partition, fold repeated pairs, sort each partition, and optionally
// combine. It is pure computation — the caller charges the virtual clock
// separately.
func ExecMap(spec *JobSpec, data []byte) *MapOutput {
	return ExecMapFile(spec, "", data)
}

// ExecMapFile is ExecMap for a named input file, honoring spec.MapFor.
func ExecMapFile(spec *JobSpec, file string, data []byte) *MapOutput {
	return execMap(spec, file, data, maxOffset, foldMaxSlots)
}

// execMap is ExecMapFile with the offset space and the fold table's size
// bounded by limit and slots, which tests lower (slots 0: no table).
func execMap(spec *JobSpec, file string, data []byte, limit uint64, slots int) *MapOutput {
	nred := spec.NumReduces
	b := newOutputBuilder(file, data, nred, len(data)/(32*nred)+64, limit)
	if slots > 0 {
		b.table = newFoldTable(slots)
	}
	var emit Emit
	if nred == 1 {
		// Single-reduce short jobs (the paper's case) skip partitioning.
		emit = func(k, v []byte) { b.add(0, k, v, 1) }
	} else {
		part := spec.partitioner()
		emit = func(k, v []byte) {
			p := part(k, nred)
			if p < 0 || p >= nred {
				panic(fmt.Sprintf("mapreduce: partitioner returned %d of %d", p, nred))
			}
			b.add(p, k, v, 1)
		}
	}
	mapFn := spec.Map
	if spec.MapFor != nil {
		if fn := spec.MapFor(file); fn != nil {
			mapFn = fn
		}
	}
	var records int64
	spec.Format.Scan(data, func(k, v []byte) {
		records++
		mapFn(k, v, emit)
	})
	for p := range b.parts {
		b.sortRecs(p)
	}
	if spec.Combine != nil {
		// The combined output is a new builder over the same input block;
		// the pre-combine index and slab are garbage once it is built.
		raw := []*MapOutput{b.output()}
		b = newOutputBuilder(file, data, nred, 64, limit)
		for p := 0; p < nred; p++ {
			b.combineFrom(raw, p, spec.Combine)
		}
	}
	out := b.output()
	out.Records = records
	return out
}

// spillCount reports how many spill files a map output of n bytes produces
// given the sort buffer size.
func spillCount(n, sortBuf int64) int {
	if n <= 0 {
		return 0
	}
	c := int((n + sortBuf - 1) / sortBuf)
	if c < 1 {
		c = 1
	}
	return c
}

// TaskOptions control one map or reduce task attempt.
type TaskOptions struct {
	// KeepInMemory, when non-nil, is consulted once a map's output size is
	// known; returning true keeps the output in memory. Otherwise the spill
	// (and merge, when the output exceeds the sort buffer) is charged to the
	// node's disk. The U+ mode uses this to admit outputs into its cache
	// budget. Reduces ignore it.
	KeepInMemory func(outBytes int64) bool

	// Attempt is the retry ordinal of this task execution (0 = first).
	Attempt int

	// Parent is the trace span the task's spans nest under (the owning
	// job's root span); 0 when untraced.
	Parent trace.SpanID
}

// RunMapTask executes one map task on a node: read the split from HDFS
// (locality-priced), run the map function on a core, and spill the output.
// done receives the materialized output together with the task profile.
func (rt *Runtime) RunMapTask(spec *JobSpec, split *hdfs.Split, node *topology.Node, opts TaskOptions, done func(*MapOutput, *profiler.TaskProfile, error)) {
	if done == nil {
		panic("mapreduce: RunMapTask needs a completion callback")
	}
	tp := &profiler.TaskProfile{
		Kind:      profiler.MapTask,
		Index:     split.Index,
		Node:      node.Name,
		Started:   rt.Eng.Now(),
		NodeLocal: split.HostedOn(node),
		Attempt:   opts.Attempt,
	}
	// The task process dies silently if its node crashes: engine events
	// cannot be cancelled, so every continuation below re-checks the boot
	// generation captured here and abandons the task (no done, no core
	// release — the reborn node starts with fresh devices; its spans stay
	// open, which the analyzer and exporters read as "abandoned"). The AM
	// learns of the loss from the RM's lost-container report instead.
	epoch := node.Epoch()
	comp := "task/" + node.Name
	var span, readSpan trace.SpanID
	if rt.Trace != nil {
		span = rt.Trace.StartSpan(opts.Parent, comp, fmt.Sprintf("map-%d", split.Index), "map",
			trace.A("attempt", fmt.Sprint(opts.Attempt)),
			trace.A("split", split.File))
		readSpan = rt.Trace.StartSpan(span, comp, "read", "map")
	}
	readStart := rt.Eng.Now()
	rt.ReadSplit(split, node, func(data []byte, err error) {
		if !node.AliveEpoch(epoch) {
			return
		}
		if err != nil {
			if rt.Trace != nil {
				rt.Trace.EndSpan(readSpan, trace.A("error", err.Error()))
				rt.Trace.EndSpan(span, trace.A("error", err.Error()))
			}
			done(nil, tp, err)
			return
		}
		tp.ReadDur = rt.Eng.Now().Sub(readStart)
		if rt.Trace != nil {
			rt.Trace.EndSpan(readSpan, trace.A("bytes", fmt.Sprint(len(data))))
		}
		tp.InputBytes = int64(len(data))
		point, crash := rt.Faults.crashPoint(spec.OutputFile, attemptID{taskID{"map", split.Index}, opts.Attempt})
		node.Cores.Acquire(1, func() {
			if !node.AliveEpoch(epoch) {
				return
			}
			// Charge the map function first — its cost depends only on the
			// input size — and run it when the output-sized sort charge
			// needs its result. A scripted crash dies partway through.
			compute := spec.MapComputeTime(split, int64(len(data)), node)
			if crash {
				compute = time.Duration(float64(compute) * point)
			}
			computeStart := rt.Eng.Now()
			rt.Eng.After(compute, func() {
				if !node.AliveEpoch(epoch) {
					return
				}
				mo, died := contain(crash, func() *MapOutput { return rt.execMapCached(spec, split, data) })
				if died != nil {
					done(nil, tp, rt.failAttempt(tp, node, span, computeStart, died))
					return
				}
				mo.Split = split
				mo.Resident = topology.Resident{Node: node, Epoch: epoch, InMemory: opts.KeepInMemory != nil && opts.KeepInMemory(mo.TotalBytes)}
				tp.Records = mo.Records
				tp.OutputBytes = mo.TotalBytes
				// Sorting/serializing the output buffer is CPU charged with
				// the map function.
				sort := time.Duration(float64(mo.TotalBytes) / (rt.Params.SortCPUBytesPerSec * node.Type.CPUSpeed) * float64(time.Second))
				rt.Eng.After(sort, func() {
					if !node.AliveEpoch(epoch) {
						return
					}
					tp.ComputeDur = rt.Eng.Now().Sub(computeStart)
					node.Cores.Release(1)
					if rt.Trace != nil {
						rt.Trace.SpanSince(span, comp, "compute", "map", computeStart,
							trace.A("records", fmt.Sprint(mo.Records)))
					}
					rt.spillPhase(mo, node, epoch, span, tp, func() {
						tp.Ended = rt.Eng.Now()
						if rt.Trace != nil {
							rt.Trace.Add("task", "map %d attempt %d done on %s (in=%d out=%d mem=%v)",
								split.Index, opts.Attempt, node.Name, tp.InputBytes, tp.OutputBytes, mo.InMemory)
							rt.Trace.EndSpan(span, trace.A("out_bytes", fmt.Sprint(mo.TotalBytes)))
						}
						h := rt.handles()
						h.mapOK.Inc()
						h.mapSeconds.Observe(tp.Elapsed().Seconds())
						done(mo, tp, nil)
					})
				})
			})
		})
	})
}

// execMapCached runs ExecMapFile through the MapCache; the output comes back
// stamped with the key it was stored or found under. Simulations on other
// goroutines may map the same key at the same moment; the cache's sharded
// locks make that safe, and the duplicate store deduplicates.
func (rt *Runtime) execMapCached(spec *JobSpec, split *hdfs.Split, data []byte) *MapOutput {
	k, reusable := rt.MapCache.key(spec, split.File, split.Offset, data)
	if !reusable {
		return ExecMapFile(spec, split.File, data)
	}
	mo, ok := rt.MapCache.lookup(k)
	if !ok {
		mo = ExecMapFile(spec, split.File, data)
		rt.MapCache.store(k, mo)
	}
	return mo
}

// failAttempt is the one exit of a map or reduce attempt that died at the end
// of its compute timer (see contain): the core the compute held is released,
// the failure is recorded on the attempt's profile, spans and counters — a
// panic's value and raising frame on the compute span — and err, stamped with
// the attempt's coordinates, goes back for the AM to charge.
func (rt *Runtime) failAttempt(tp *profiler.TaskProfile, node *topology.Node, span trace.SpanID, computeStart sim.Time, err *AttemptError) error {
	tp.ComputeDur = rt.Eng.Now().Sub(computeStart)
	node.Cores.Release(1)
	tp.Failed = true
	tp.Ended = rt.Eng.Now()
	err.Kind, err.Index, err.Attempt = tp.Kind.String(), tp.Index, tp.Attempt
	var attrs []trace.Attr
	if err.Cause == nil {
		rt.Faults.Injected++
	} else {
		attrs = []trace.Attr{trace.A("panic", fmt.Sprint(err.Cause)), trace.A("at", err.At)}
	}
	rt.Trace.Add("task", "%s %d attempt %d FAILED on %s", err.Kind, err.Index, err.Attempt, node.Name)
	rt.Trace.SpanSince(span, "task/"+node.Name, "compute", err.Kind, computeStart, attrs...)
	rt.Trace.EndSpan(span, trace.A("failed", "true"))
	if h := rt.handles(); tp.Kind == profiler.MapTask {
		h.mapFailed.Inc()
	} else {
		h.reduceFailed.Inc()
	}
	return err
}

// spillPhase charges the spill and merge sub-phases of Eq. 1: the spill
// writes s^o once; when the output needed multiple spills, the merge pass
// reads everything back and writes it again.
func (rt *Runtime) spillPhase(mo *MapOutput, node *topology.Node, epoch int, parent trace.SpanID, tp *profiler.TaskProfile, done func()) {
	comp := "task/" + node.Name
	if mo.InMemory || mo.TotalBytes == 0 {
		tp.Spills = 0
		rt.Eng.After(0, func() {
			if !node.AliveEpoch(epoch) {
				return
			}
			done()
		})
		return
	}
	tp.Spills = spillCount(mo.TotalBytes, rt.Params.SortBufferBytes)
	spillStart := rt.Eng.Now()
	node.Disk.Use(mo.TotalBytes, func() {
		if !node.AliveEpoch(epoch) {
			return
		}
		tp.SpillDur = rt.Eng.Now().Sub(spillStart)
		if rt.Trace != nil {
			rt.Trace.SpanSince(parent, comp, "spill", "map", spillStart,
				trace.A("spills", fmt.Sprint(tp.Spills)))
		}
		if tp.Spills <= 1 {
			done()
			return
		}
		mergeStart := rt.Eng.Now()
		node.Disk.Use(mo.TotalBytes, func() { // read spills back
			node.Disk.Use(mo.TotalBytes, func() { // write merged file
				if !node.AliveEpoch(epoch) {
					return
				}
				tp.MergeDur = rt.Eng.Now().Sub(mergeStart)
				if rt.Trace != nil {
					rt.Trace.SpanSince(parent, comp, "merge", "map", mergeStart)
				}
				done()
			})
		})
	})
}

// shuffleByteBuckets are the upper bounds for the shuffle-size histogram:
// powers of ~4 from 1 KiB to 1 GiB.
var shuffleByteBuckets = []float64{
	1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// TrackFetch brackets one shuffle fetch's observability, so every byte that
// enters the in-flight gauge leaves it: inFlight bytes are on the move from
// now until the returned completion is called, which closes span (0 when
// untraced), observes the moved bytes on success, and hands err to done.
func (rt *Runtime) TrackFetch(span trace.SpanID, kind, transport string, inFlight int64, done func(error)) func(moved int64, err error) {
	rt.shuffleInFlight += inFlight
	return func(moved int64, err error) {
		rt.shuffleInFlight -= inFlight
		if err != nil {
			rt.Trace.EndSpan(span, trace.A("error", err.Error()))
		} else {
			rt.Trace.EndSpan(span)
			rt.ObserveShuffle(kind, transport, moved)
		}
		done(err)
	}
}

// ShuffleBytesInFlight reports the bytes of shuffle fetches currently in
// progress, the gauge the flight recorder samples.
func (rt *Runtime) ShuffleBytesInFlight() int64 { return rt.shuffleInFlight }

// ObserveShuffle records one completed shuffle fetch: n bytes into the
// transport-labeled mapreduce_shuffle_bytes histogram plus a tick of the
// mapreduce_shuffle_fetch_total counter. kind is "permap" for the stock
// per-(map, partition) fetch and "consolidated" for the shuffle service's
// per-(node, partition) fetch.
func (rt *Runtime) ObserveShuffle(kind, transport string, n int64) {
	if rt.Reg == nil {
		return
	}
	h := rt.handles()
	ob, ok := h.shuffleBytes[transport]
	if !ok {
		name := metrics.With("mapreduce_shuffle_bytes", "transport", transport)
		rt.Reg.Define(name, shuffleByteBuckets)
		ob = rt.Reg.HistogramHandle(name)
		h.shuffleBytes[transport] = ob
	}
	ob.Observe(float64(n))
	fetch, ok := h.shuffleFetch[kind+"/"+transport]
	if !ok {
		fetch = rt.Reg.CounterHandle("mapreduce_shuffle_fetch_total", "kind", kind, "transport", transport)
		h.shuffleFetch[kind+"/"+transport] = fetch
	}
	fetch.Inc()
}

// ShuffleFetch is FetchPartition with observability: the fetch is recorded
// as a shuffle span under parent and its size lands in the shuffle-bytes
// histogram. AMs use this; FetchPartition remains the raw primitive.
func (rt *Runtime) ShuffleFetch(parent trace.SpanID, mo *MapOutput, part int, dst *topology.Node, done func(error)) {
	transport := mo.Transport(dst)
	var span trace.SpanID
	if rt.Trace != nil {
		span = rt.Trace.StartSpan(parent, "task/"+dst.Name,
			fmt.Sprintf("fetch map-%d.p%d", mo.Split.Index, part), "shuffle",
			trace.A("from", mo.Node.Name),
			trace.A("transport", transport),
			trace.A("bytes", fmt.Sprint(mo.PartBytes[part])))
	}
	n := mo.PartBytes[part]
	finish := rt.TrackFetch(span, "permap", transport, n, done)
	rt.FetchPartition(mo, part, dst, func(err error) { finish(n, err) })
}

// FetchPartition models the reduce-side fetch of one map output partition,
// priced by where the output resides (see topology.Cluster.Read). done
// receives ErrOutputLost when the output's node died before — or while — the
// fetch ran (Hadoop's fetch failure, which the AM answers by re-executing
// the map).
func (rt *Runtime) FetchPartition(mo *MapOutput, part int, dst *topology.Node, done func(error)) {
	if done == nil {
		panic("mapreduce: FetchPartition needs a completion callback")
	}
	rt.Cluster.Read(mo.Resident, dst, mo.PartBytes[part], rt.Params.RPCLatency, ErrOutputLost, done)
}

// Reduced is one reduce partition's result: the part file's bytes and how
// many records they hold.
type Reduced struct {
	Encoded []byte
	Records int64
}

// ExecReduce runs the reduce function for real over the fetched partitions,
// streaming merge → group by key → reduce → encode: neither the merged
// sequence nor the output pairs are materialized. Output records are
// tab-separated lines, the shape of TextOutputFormat, so job output is a
// plain inspectable HDFS file, presized to one line per distinct pair of
// every run and grown if the reducer emits more. Pure computation.
func ExecReduce(spec *JobSpec, part int, outputs []*MapOutput) Reduced {
	var size int
	for _, mo := range outputs {
		for _, r := range mo.Partitions[part] {
			size += int(r.klen) + int(r.vlen) + 2
		}
	}
	out := Reduced{Encoded: make([]byte, 0, size)}
	emit := func(k, v []byte) {
		buf := out.Encoded
		if n := len(k) + len(v) + 2; cap(buf)-len(buf) < n {
			buf = grown(buf, n)
		}
		buf = append(buf, k...)
		buf = append(buf, '\t')
		buf = append(buf, v...)
		out.Encoded = append(buf, '\n')
		out.Records++
	}
	newMerger(outputs, part).groups(spec.Reduce, emit)
	return out
}

// EncodePairs returns the part file a reduce produced. ExecReduce encodes
// as it reduces; this is the accessor its callers compose it with.
func EncodePairs(r Reduced) []byte { return r.Encoded }

// PartFileName returns the output file for one reduce partition.
func PartFileName(outputFile string, part int) string {
	return fmt.Sprintf("%s/part-%05d", outputFile, part)
}

// execReduceCached runs ExecReduce through the MapCache: a reduce over
// outputs that all came through the cache commits the part file an earlier
// reduce over the same multiset of them produced, and stores its own once
// it has succeeded. The bytes are shared; HDFS and the intermediate store
// never write into block data.
func (rt *Runtime) execReduceCached(spec *JobSpec, part int, outputs []*MapOutput) Reduced {
	k, reusable := rt.MapCache.reduceKeyFor(spec, part, outputs)
	if !reusable {
		return ExecReduce(spec, part, outputs)
	}
	if r, ok := rt.MapCache.lookupReduce(k); ok {
		return r
	}
	return rt.MapCache.storeReduce(k, ExecReduce(spec, part, outputs))
}

// RunReduceTask executes reduce partition part on node: merge-sort CPU,
// the reduce function, and the HDFS write of the output. Fetches must have
// completed already. done fires when the output file is durable.
func (rt *Runtime) RunReduceTask(spec *JobSpec, part int, opts TaskOptions, outputs []*MapOutput, node *topology.Node, done func(*profiler.TaskProfile, error)) {
	if done == nil {
		panic("mapreduce: RunReduceTask needs a completion callback")
	}
	tp := &profiler.TaskProfile{
		Kind:    profiler.ReduceTask,
		Index:   part,
		Node:    node.Name,
		Started: rt.Eng.Now(),
		Attempt: opts.Attempt,
	}
	comp := "task/" + node.Name
	var span trace.SpanID
	if rt.Trace != nil {
		span = rt.Trace.StartSpan(opts.Parent, comp, fmt.Sprintf("reduce-%d", part), "reduce",
			trace.A("attempt", fmt.Sprint(opts.Attempt)))
	}
	var in int64
	for _, mo := range outputs {
		in += mo.PartBytes[part]
	}
	tp.InputBytes = in
	// Abandon silently if the node dies mid-phase (see RunMapTask): the AM
	// hears about the lost container from the RM, never from the task.
	epoch := node.Epoch()
	point, crash := rt.Faults.crashPoint(spec.OutputFile, attemptID{taskID{"reduce", part}, opts.Attempt})
	node.Cores.Acquire(1, func() {
		if !node.AliveEpoch(epoch) {
			return
		}
		compute := spec.ReduceComputeTime(in, node)
		if crash {
			compute = time.Duration(float64(compute) * point)
		} else {
			// Merge-sort CPU over the shuffled bytes.
			compute += time.Duration(float64(in) / (rt.Params.SortCPUBytesPerSec * node.Type.CPUSpeed) * float64(time.Second))
		}
		computeStart := rt.Eng.Now()
		rt.Eng.After(compute, func() {
			if !node.AliveEpoch(epoch) {
				return
			}
			// The reduce is pure over already-materialized map outputs; it
			// runs where the write needs its bytes.
			r, died := contain(crash, func() Reduced { return rt.execReduceCached(spec, part, outputs) })
			if died != nil {
				done(tp, rt.failAttempt(tp, node, span, computeStart, died))
				return
			}
			tp.OutputBytes = int64(len(r.Encoded))
			tp.Records = r.Records
			tp.ComputeDur = rt.Eng.Now().Sub(computeStart)
			node.Cores.Release(1)
			if rt.Trace != nil {
				rt.Trace.SpanSince(span, comp, "compute", "reduce", computeStart,
					trace.A("records", fmt.Sprint(r.Records)))
			}
			writeStart := rt.Eng.Now()
			committed := func(err error) {
				if !node.AliveEpoch(epoch) {
					return
				}
				tp.SpillDur = rt.Eng.Now().Sub(writeStart)
				tp.Ended = rt.Eng.Now()
				if rt.Trace != nil {
					rt.Trace.Add("task", "reduce %d attempt %d done on %s (in=%d out=%d)",
						part, opts.Attempt, node.Name, tp.InputBytes, tp.OutputBytes)
					rt.Trace.SpanSince(span, comp, "write", "reduce", writeStart,
						trace.A("bytes", fmt.Sprint(tp.OutputBytes)))
					rt.Trace.EndSpan(span)
				}
				h := rt.handles()
				h.reduceOK.Inc()
				h.reduceSeconds.Observe(tp.Elapsed().Seconds())
				done(tp, err)
			}
			if spec.IntermediateOutput && rt.Intermediates != nil {
				// Intra-query intermediates skip the replicated HDFS write:
				// the output stays on the producer node (memory while the
				// store's budget lasts, local disk after) and the consuming
				// stage reads it shuffle-style. CommitIntermediate is
				// last-writer-wins like the HDFS path below.
				rt.CommitIntermediate(PartFileName(spec.OutputFile, part), r.Encoded, node, committed)
				return
			}
			// A superseded attempt's write cannot be cancelled (engine events
			// are uncancellable), so a stale part file may have landed after an
			// AM relaunch wiped the output directory. Reduce output for a given
			// (job, partition) is deterministic, so committing is safely
			// last-writer-wins: clear any stale file and write ours.
			rt.DFS.Delete(PartFileName(spec.OutputFile, part))
			rt.DFS.Write(PartFileName(spec.OutputFile, part), r.Encoded, node, func(_ *hdfs.File, err error) {
				committed(err)
			})
		})
	})
}

// Localize charges a fresh container's download of the job jar and
// configuration from HDFS (step 6 of the submission flow).
func (rt *Runtime) Localize(spec *JobSpec, node *topology.Node, done func(error)) {
	jar := JarPath(spec)
	conf := ConfPath(spec)
	rt.DFS.ReadAll(jar, node, func(_ []byte, err error) {
		if err != nil {
			done(err)
			return
		}
		rt.DFS.ReadAll(conf, node, func(_ []byte, err2 error) { done(err2) })
	})
}

// PollAlignedNotify invokes done at the client's next status-poll tick
// (polls happen every ClientPollInterval from submission). Stock Hadoop
// clients learn of job completion this way; the MRapid proxy's direct RPC
// notification skips it.
func (rt *Runtime) PollAlignedNotify(submittedAt sim.Time, done func()) {
	interval := rt.Params.ClientPollInterval
	if interval <= 0 {
		rt.Eng.After(0, done)
		return
	}
	elapsed := rt.Eng.Now().Sub(submittedAt)
	rem := interval - elapsed%interval
	if rem == interval {
		rem = 0
	}
	rt.Eng.After(rem, done)
}

// JarPath and ConfPath name the job artifacts a client uploads to HDFS.
func JarPath(spec *JobSpec) string  { return "/staging/" + spec.Name + "/job.jar" }
func ConfPath(spec *JobSpec) string { return "/staging/" + spec.Name + "/job.xml" }

// UploadArtifacts stages the job jar and configuration into HDFS from the
// client (master) node, charged as real writes — step 1 of the flow. A
// resubmission of the same job name replaces the previous staging files
// (each submission pays the upload, as each Hadoop job ID stages afresh).
//
// The artifacts carry a size, not content: nothing ever looks inside a jar,
// so both files are capacity-clipped views of rt.zeros. HDFS blocks alias the
// bytes they are given, Append copies before it grows a block and readers
// treat what they get as immutable, so the views charge, place and digest
// exactly as freshly allocated buffers would while no job allocates or pins
// its own megabytes.
func (rt *Runtime) UploadArtifacts(spec *JobSpec, done func(error)) {
	for _, name := range []string{JarPath(spec), ConfPath(spec)} {
		if rt.DFS.Exists(name) {
			if err := rt.DFS.Delete(name); err != nil {
				rt.Eng.After(0, func() { done(err) })
				return
			}
		}
	}
	if n := max(rt.Params.JobJarBytes, rt.Params.JobConfBytes); int64(len(rt.zeros)) < n {
		rt.zeros = make([]byte, n)
	}
	jar := rt.zeros[:rt.Params.JobJarBytes:rt.Params.JobJarBytes]
	conf := rt.zeros[:rt.Params.JobConfBytes:rt.Params.JobConfBytes]
	rt.DFS.Write(JarPath(spec), jar, rt.Cluster.Master(), func(_ *hdfs.File, err error) {
		if err != nil {
			done(err)
			return
		}
		rt.DFS.Write(ConfPath(spec), conf, rt.Cluster.Master(), func(_ *hdfs.File, err2 error) {
			done(err2)
		})
	})
}
