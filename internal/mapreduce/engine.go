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

	// MapCache, when non-nil, memoizes pure ExecMapFile results across runs
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

	// lanes are the host lanes task bodies run on while their compute
	// timers run; nil runs every body inline at its join (see lanes.go).
	lanes *hostLanes

	// mapsInFlight and reducesInFlight hold, per MapCache key, the attempt
	// whose body is computing it: an attempt that misses the cache while
	// another maps or reduces the same inputs shares that body.
	mapsInFlight    inFlight[cacheKey, []byte, *MapOutput]
	reducesInFlight inFlight[reduceKey, []*MapOutput, Reduced]
}

// NewRuntime wires a runtime together.
func NewRuntime(eng *sim.Engine, cluster *topology.Cluster, dfs *hdfs.DFS, rm *yarn.RM, params costmodel.Params) *Runtime {
	return &Runtime{Eng: eng, Cluster: cluster, DFS: dfs, RM: rm, Params: params, inAMs: make(map[*InAM]struct{}),
		lanes: newHostLanes(defaultLanes())}
}

// Close ends the runtime's use of host lanes: bodies still queued come off
// them — one whose attempt joins it later runs inline — and running ones
// are waited for, so no body runs on a lane after Close returns.
func (rt *Runtime) Close() { rt.lanes.close() }

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
	// task (ExecMapFile) have no holder.
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

// ExecMapFile runs the map for real over file's split data: scan, map, flush,
// partition, sort each partition, and optionally combine. It is pure
// computation — the caller charges the virtual clock separately.
func ExecMapFile(spec *JobSpec, file string, data []byte) *MapOutput {
	return execMap(nil, spec, file, data, maxOffset)
}

// exactRecs is the pair count of a split of n bytes when it is known before
// the map runs: fixed-length records into a single reduce with no combiner,
// one pair each (TeraSort's identity map).
func exactRecs(spec *JobSpec, n int) (int, bool) {
	f, ok := spec.Format.(FixedFormat)
	if !ok || f.KeyLen+f.ValLen <= 0 || spec.NumReduces != 1 || spec.Combine != nil {
		return 0, false
	}
	return n / (f.KeyLen + f.ValLen), true
}

// execMap is ExecMapFile on lane's scratch, with the offset space bounded
// by limit, which tests lower.
func execMap(lane *Lane, spec *JobSpec, file string, data []byte, limit uint64) *MapOutput {
	nred := spec.NumReduces
	b := newOutputBuilder(lane, file, data, nred, limit)
	if recs, ok := exactRecs(spec, len(data)); ok {
		b.parts[0], b.exact = make([]Rec, 0, recs), true
	}
	b.part = spec.partitioner()
	var flush func(CountedEmit)
	b.mapFn, flush = spec.MapFor(file, lane)
	spec.Format.Scan(data, b.scan)
	records := b.records
	if flush != nil {
		flush(b.emitCounted)
	}
	for p := range b.parts {
		b.sortRecs(p)
	}
	if spec.Combine != nil {
		// The pre-combine pairs are never sealed: the combiner reads them
		// through a view of b's scratch into a second builder over the same
		// input block, and b goes back once they are in.
		raw := []*MapOutput{b.view()}
		c := newOutputBuilder(lane, file, data, nred, limit)
		for p := 0; p < nred; p++ {
			c.combineFrom(newMerger(raw, p), p, spec.Combine)
		}
		b.release()
		b = c
	}
	out := b.output()
	b.release()
	out.Records = records
	return out
}

// partitionOf is the partition of key k among nred: 0 for a single reduce,
// else what part says, which must be in range.
func partitionOf(part PartitionFunc, k []byte, nred int) int {
	if nred == 1 {
		return 0
	}
	p := part(k, nred)
	if p < 0 || p >= nred {
		panic(fmt.Sprintf("mapreduce: partitioner returned %d of %d", p, nred))
	}
	return p
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
	a := &mapAttempt{spec: spec, split: split}
	a.rt = rt
	tp := &a.tp
	*tp = profiler.TaskProfile{
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
	rt.ReadSplit(split, node, func(data []byte, content *hdfs.Content, err error) {
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
			// input size — and have its output when the output-sized sort
			// charge needs it: the body runs on a host lane meanwhile. A
			// scripted crash dies partway through and runs nothing.
			compute := spec.MapComputeTime(split, int64(len(data)), node)
			if crash {
				compute = time.Duration(float64(compute) * point)
			} else {
				a.start(data, content)
			}
			computeStart := rt.Eng.Now()
			rt.Eng.After(compute, func() {
				if !node.AliveEpoch(epoch) {
					a.drop()
					return
				}
				mo, died := a.join(crash)
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
							rt.Trace.EndSpan(span, trace.A("out_bytes", fmt.Sprint(mo.TotalBytes)),
								trace.A("in_memory", fmt.Sprint(mo.InMemory)))
						}
						rt.Reg.CounterHandle("mapreduce_task_attempts_total", "kind", "map", "outcome", "ok").Inc()
						rt.Reg.HistogramHandle("mapreduce_task_seconds", "kind", "map").Observe(tp.Elapsed().Seconds())
						done(mo, tp, nil)
					})
				})
			})
		})
	})
}

// mapAttempt is one map task attempt: its profile, the split its body maps,
// and the body itself, which computes the output on a host lane while the
// attempt's compute timer runs (see lanes.go and memoBody).
type mapAttempt struct {
	memoBody[cacheKey, []byte, *MapOutput]
	spec  *JobSpec
	split *hdfs.Split
	tp    profiler.TaskProfile
}

// start begins the attempt's host work as its compute timer starts, keyed
// by the split's coordinates and content, which is what the split reader
// handed out with data.
func (a *mapAttempt) start(data []byte, content *hdfs.Content) {
	t, k := a.rt.MapCache.key(a.spec, a.split.File, a.split.Offset, len(data), content)
	a.memoBody.start(&a.rt.mapsInFlight, t, k, data, a)
}

// execute is the body: the map over the split, on lane's scratch. A panic
// fails the attempt, not the process.
func (a *mapAttempt) execute(lane *Lane) {
	a.out, a.died = contain(func() *MapOutput { return execMap(lane, a.spec, a.split.File, a.in, maxOffset) })
}

// memoBody is the part of a map or reduce attempt that computes its output
// V from its input I, once per MapCache key K among the attempts of one
// Runtime: a hit in the cache's table when the compute timer starts runs
// nothing, a miss while another attempt computes the same key shares that
// attempt's body, and any other miss starts a body of its own, registered
// in the Runtime's inFlight map for its kind until its first join stores
// the result. A spec that is not reusable has no table and always runs its
// own body.
type memoBody[K comparable, I, V any] struct {
	rt   *Runtime
	body hostBody

	// from is the attempt whose body this one reads: itself, another
	// attempt computing the same key, or nil when the table had the output
	// (out) when the timer started.
	from    *memoBody[K, I, V]
	table   *table[K, V]       // nil: not reusable
	flights *inFlight[K, I, V] // where the body is registered until resolved; nil when it is not
	key     K
	in      I
	out     V
	died    *AttemptError
}

// inFlight holds, per MapCache key, the attempt whose body is computing it.
type inFlight[K comparable, I, V any] map[K]*memoBody[K, I, V]

// start takes a hit in t on the simulation goroutine, or shares the body of
// the attempt flights holds for k, or starts task's own body over in and
// registers it for later attempts to share.
func (m *memoBody[K, I, V]) start(flights *inFlight[K, I, V], t *table[K, V], k K, in I, task interface{ execute(*Lane) }) {
	if t != nil {
		if owner := (*flights)[k]; owner != nil {
			t.hits.Add(1)
			owner.body.refs++
			m.from = owner
			return
		}
		if v, ok := t.lookup(k); ok {
			m.out = v
			return
		}
		if *flights == nil {
			*flights = make(inFlight[K, I, V])
		}
		(*flights)[k] = m
		m.table, m.flights, m.key = t, flights, k
	}
	m.from, m.in = m, in
	m.body.task = task
	m.rt.lanes.start(&m.body)
}

// join returns the attempt's output when its compute timer fires, or how it
// died: scripted to crash, or its body panicked. The first join of a body
// resolves it; an attempt that shares another's body gets its own view of
// the output, as a cache hit does.
func (m *memoBody[K, I, V]) join(crash bool) (v V, died *AttemptError) {
	src := m.from
	switch {
	case crash:
		return v, &AttemptError{}
	case src == nil:
		v, m.out = m.out, v
		return v, nil
	}
	src.body.join()
	src.resolve(true)
	defer src.release()
	if src.died != nil {
		d := *src.died
		return v, &d
	}
	if src == m {
		return m.out, nil
	}
	return src.table.share(src.out), nil
}

// drop gives the attempt's claim on its body up: its node died while the
// compute timer ran, and the output is never read.
func (m *memoBody[K, I, V]) drop() {
	if src := m.from; src != nil {
		src.body.drop()
		if src.body.refs == 0 {
			src.resolve(false)
			src.release()
		}
	}
}

// resolve ends m's registration at its body's first join, or when every
// attempt dropped it: a joined body's output goes into the table unless the
// body died, and a dropped one's never does, whether it ran or not — as
// when a dead node kept the body from running at all.
func (m *memoBody[K, I, V]) resolve(joined bool) {
	if m.flights == nil {
		return
	}
	delete(*m.flights, m.key)
	m.flights = nil
	if joined && m.died == nil {
		m.out = m.table.store(m.key, m.out)
	}
}

// release lets go of what the body read and made once no attempt will join
// it: the profile the AM keeps must not pin a split or an output.
func (m *memoBody[K, I, V]) release() {
	if m.body.refs == 0 {
		var (
			in  I
			out V
		)
		m.in, m.out = in, out
	}
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
	rt.Trace.SpanSince(span, "task/"+node.Name, "compute", err.Kind, computeStart, attrs...)
	rt.Trace.EndSpan(span, trace.A("failed", "true"))
	rt.Reg.CounterHandle("mapreduce_task_attempts_total", "kind", err.Kind, "outcome", "failed").Inc()
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
// transport-labeled mapreduce_shuffle_bytes histogram (whose family it
// defines with byte-sized buckets) plus a tick of the
// mapreduce_shuffle_fetch_total counter. kind is "permap" for the stock
// per-(map, partition) fetch and "consolidated" for the shuffle service's
// per-(node, partition) fetch.
func (rt *Runtime) ObserveShuffle(kind, transport string, n int64) {
	rt.Reg.Define("mapreduce_shuffle_bytes", shuffleByteBuckets)
	rt.Reg.HistogramHandle("mapreduce_shuffle_bytes", "transport", transport).Observe(float64(n))
	rt.Reg.CounterHandle("mapreduce_shuffle_fetch_total", "kind", kind, "transport", transport).Inc()
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
// streaming merge → group by key → reduce → encode: the merged sequence is
// never materialized, and the output lines go straight into the part file.
// Output records are tab-separated lines, the shape of TextOutputFormat, so
// job output is a plain inspectable HDFS file, presized to one line per
// distinct pair of every run and grown if the reducer emits more. Pure
// computation, on the calling goroutine: it is the one-range case of the
// reduce a task body runs (see ranges.go), and a reducer's panic is the
// caller's.
func ExecReduce(spec *JobSpec, part int, outputs []*MapOutput) Reduced {
	s := splitReduce(spec, part, outputs, 1)
	s.piece(0)
	return s.assemble()
}

// EncodePairs returns the part file a reduce produced. ExecReduce encodes
// as it reduces; this is the accessor its callers compose it with.
func EncodePairs(r Reduced) []byte { return r.Encoded }

// PartFileName returns the output file for one reduce partition.
func PartFileName(outputFile string, part int) string {
	return fmt.Sprintf("%s/part-%05d", outputFile, part)
}

// RunReduceTask executes reduce partition part on node: merge-sort CPU,
// the reduce function, and the HDFS write of the output. Fetches must have
// completed already. done fires when the output file is durable.
func (rt *Runtime) RunReduceTask(spec *JobSpec, part int, opts TaskOptions, outputs []*MapOutput, node *topology.Node, done func(*profiler.TaskProfile, error)) {
	if done == nil {
		panic("mapreduce: RunReduceTask needs a completion callback")
	}
	a := &reduceAttempt{spec: spec, part: part}
	a.rt = rt
	tp := &a.tp
	*tp = profiler.TaskProfile{
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
			// The reduce is pure over already-materialized map outputs; it
			// runs on a host lane while the timer runs.
			a.start(outputs)
		}
		computeStart := rt.Eng.Now()
		rt.Eng.After(compute, func() {
			if !node.AliveEpoch(epoch) {
				a.drop()
				return
			}
			r, died := a.join(crash)
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
					rt.Trace.SpanSince(span, comp, "write", "reduce", writeStart,
						trace.A("bytes", fmt.Sprint(tp.OutputBytes)))
					rt.Trace.EndSpan(span, trace.A("in_bytes", fmt.Sprint(tp.InputBytes)))
				}
				rt.Reg.CounterHandle("mapreduce_task_attempts_total", "kind", "reduce", "outcome", "ok").Inc()
				rt.Reg.HistogramHandle("mapreduce_task_seconds", "kind", "reduce").Observe(tp.Elapsed().Seconds())
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

// reduceAttempt is one reduce task attempt: its profile, the map outputs
// its body merges, and the body itself (see memoBody).
type reduceAttempt struct {
	memoBody[reduceKey, []*MapOutput, Reduced]
	spec *JobSpec
	part int
	tp   profiler.TaskProfile
}

// start begins the attempt's host work as its compute timer starts, keyed
// by the multiset of outputs when they all came through the MapCache: a hit
// commits the part file an earlier reduce over them produced.
func (a *reduceAttempt) start(outputs []*MapOutput) {
	t, k := a.rt.MapCache.reduceKeyFor(a.spec, a.part, outputs)
	a.memoBody.start(&a.rt.reducesInFlight, t, k, outputs, a)
}

// execute is the body: the streaming merge and reduce of the partition, in
// key ranges when it is large. A panic fails the attempt, not the process.
func (a *reduceAttempt) execute(*Lane) {
	a.out, a.died = a.rt.lanes.reduce(a.spec, a.part, a.in)
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
