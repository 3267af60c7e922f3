package mapreduce

import (
	"mrapid/internal/topology"
	"mrapid/internal/trace"
)

// ShuffleProvider is how an ApplicationMaster moves committed map output to
// the reduce side. The AMs speak only this interface; what differs between
// implementations is the fetch plan — which outputs travel together and how
// soon they may leave. The node-level shuffle service (internal/shuffle)
// plugs in through Runtime.Shuffle: it waits for the last map, then moves
// one consolidated result per (node, partition). With no service attached
// the AMs resolve the package's direct provider (Runtime.shuffleProvider):
// one FetchPartition per (map, partition), ready the moment the map commits.
type ShuffleProvider interface {
	// Register notes a committed map output with the service on its node.
	Register(spec *JobSpec, mo *MapOutput)

	// Forget withdraws an output (it was lost with its node, or its job
	// finished and the intermediate data is garbage).
	Forget(spec *JobSpec, mo *MapOutput)

	// FetchPlan groups the committed outputs no fetch has been issued for
	// into the units that may be fetched now, in deterministic order.
	// mapsDone reports whether every map of the job has committed; a plan
	// that consolidates across maps returns nothing until it has.
	FetchPlan(pending []*MapOutput, mapsDone bool) [][]*MapOutput

	// Consolidate merges one planned group into a single synthetic output
	// (cross-task in-node combining when the job has a combiner) and records
	// the byte-reduction stats.
	Consolidate(spec *JobSpec, group []*MapOutput) *Consolidated

	// Fetch moves one consolidated partition to dst, charging the provider's
	// cost model. done receives ErrOutputLost when the source node died
	// before — or while — the fetch ran; the AM then recovers every member
	// of the group.
	Fetch(parent trace.SpanID, spec *JobSpec, c *Consolidated, part int, dst *topology.Node, done func(error))

	// WireRatio estimates how the service scales the job's shuffled bytes
	// (post-combine, post-compress) relative to the raw map output — the
	// correction the Eq. 3 estimator applies to s^o.
	WireRatio(spec *JobSpec) float64
}

// directShuffle is the stock per-map shuffle as a ShuffleProvider: every
// committed output is its own fetch unit, ready at once, and a fetch is a
// plain ShuffleFetch of the output itself. It keeps no state, so Register
// and Forget have nothing to do.
type directShuffle Runtime

func (*directShuffle) Register(*JobSpec, *MapOutput) {}
func (*directShuffle) Forget(*JobSpec, *MapOutput)   {}
func (*directShuffle) WireRatio(*JobSpec) float64    { return 1 }

func (*directShuffle) FetchPlan(pending []*MapOutput, _ bool) [][]*MapOutput {
	groups := make([][]*MapOutput, len(pending))
	for i := range pending {
		groups[i] = pending[i : i+1]
	}
	return groups
}

func (*directShuffle) Consolidate(_ *JobSpec, group []*MapOutput) *Consolidated {
	return &Consolidated{Out: group[0], Members: group}
}

func (d *directShuffle) Fetch(parent trace.SpanID, _ *JobSpec, c *Consolidated, part int, dst *topology.Node, done func(error)) {
	(*Runtime)(d).ShuffleFetch(parent, c.Out, part, dst, done)
}

// shuffleProvider resolves the provider the AMs fetch through: the attached
// service, or the direct per-map shuffle. Runtime.Shuffle itself stays nil
// without a service — "is the service on" is what its other readers ask.
func (rt *Runtime) shuffleProvider() ShuffleProvider {
	if rt.Shuffle != nil {
		return rt.Shuffle
	}
	return (*directShuffle)(rt)
}

// Consolidated is one node's merged map outputs: Out is a synthetic
// MapOutput whose partitions hold the cross-task merged (and re-combined)
// pairs, so the reduce path consumes it exactly like a per-map output;
// Members are the real outputs it was built from, kept for the per-map
// fallback when the node dies before the consolidated fetch lands.
type Consolidated struct {
	Out     *MapOutput
	Members []*MapOutput
}

// GroupOutputsByNode partitions outputs into per-(node, boot-epoch) groups
// in first-appearance order, the deterministic unit the shuffle service
// consolidates. Outputs from different boot epochs of the same node never
// mix: an old-epoch output is already unavailable and must fail alone.
func GroupOutputsByNode(outputs []*MapOutput) [][]*MapOutput {
	index := make(map[topology.Resident]int)
	var groups [][]*MapOutput
	for _, mo := range outputs {
		k := topology.Resident{Node: mo.Node, Epoch: mo.Epoch}
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], mo)
	}
	return groups
}

// ConsolidateGroup builds the synthetic output for one node's group: each
// partition is the k-way merge of the members' sorted runs, re-combined
// through the job's combiner when it has one, built in scratch builders and
// sealed into one new flat output that pins none of the members' input
// blocks; without a combiner each merged pair keeps its count. Pure
// computation — the shuffle service charges the virtual cost separately.
// Correctness rests on compareRecs breaking key ties by value: merging
// sorted runs in any grouping yields the same final sequence the reducer
// would have merged per map, so job output is byte-identical with or
// without consolidation. It is the one-goroutine reference:
// Runtime.ConsolidateGroup with no lanes, as ExecReduce is to
// hostLanes.reduce.
func ConsolidateGroup(spec *JobSpec, group []*MapOutput) *Consolidated {
	return (*hostLanes)(nil).consolidate(spec, group)
}

// ConsolidateGroup is ConsolidateGroup on rt's host lanes, the shuffle
// service's merge; it returns once the merge is done.
func (rt *Runtime) ConsolidateGroup(spec *JobSpec, group []*MapOutput) *Consolidated {
	return rt.lanes.consolidate(spec, group)
}

// consolidate merges group one piece per partition, a partition cut into
// key ranges when the job has fewer partitions than h has lanes
// (hostLanes.ranges). Pool workers claim pieces beside the caller as a
// reduce body's do (hostLanes.pieceHelpers). Only the slab's layout depends
// on the pieces. A piece's panic is raised again as the *AttemptError that
// contained it. A single output needs no merge: re-combining it would only
// re-serialize its values.
func (h *hostLanes) consolidate(spec *JobSpec, group []*MapOutput) *Consolidated {
	if len(group) == 0 {
		panic("mapreduce: ConsolidateGroup needs a non-empty group")
	}
	if len(group) == 1 {
		return &Consolidated{Out: group[0], Members: group}
	}
	c := newConsolidation(h, spec, group, func(p int) int { return h.ranges(spec.NumReduces, group, p) })
	if died := c.run(c, len(c.pieces), h.pieceHelpers()); died != nil {
		c.putLanes()
		panic(died)
	}
	return c.seal(group)
}

// consolidation is one group's merge cut into pieces, in partition order.
// Without lanes the pieces run in order into one builder. With lanes each
// has its own, taken in piece order before any worker is listed, so what it
// allocates does not depend on which goroutine ran which piece; they come
// from the idle lanes in turn, warm from the maps.
type consolidation struct {
	claims
	combine  ReduceFunc
	lanes    []*Lane // the idle lanes it holds
	builders []*outputBuilder
	pieces   []mergePiece
}

// mergePiece is one piece: what merge yields, added to partition part of b.
type mergePiece struct {
	merge merger
	part  int
	b     *outputBuilder
}

// newConsolidation cuts partition p of group into ranges(p) key ranges.
func newConsolidation(h *hostLanes, spec *JobSpec, group []*MapOutput, ranges func(p int) int) *consolidation {
	lanes := 1
	if h != nil {
		lanes = len(h.queues)
	}
	c := &consolidation{combine: spec.Combine,
		builders: make([]*outputBuilder, 0, spec.NumReduces), pieces: make([]mergePiece, 0, spec.NumReduces)}
	var split string // names the group in an overflow's panic
	if s := group[0].Split; s != nil {
		split = s.File
	}
	for range lanes {
		if l := idleLanes.Get(nil); l != nil {
			c.lanes = append(c.lanes, l)
		}
	}
	var merges []merger
	for p := range spec.NumReduces {
		merges = cutRuns(merges, group, p, ranges(p))
		for _, m := range merges {
			if h != nil || len(c.builders) == 0 {
				var lane *Lane
				if len(c.lanes) > 0 {
					lane = c.lanes[len(c.builders)%len(c.lanes)]
				}
				c.builders = append(c.builders, newOutputBuilder(lane, split, nil, spec.NumReduces, maxOffset))
			}
			c.pieces = append(c.pieces, mergePiece{m, p, c.builders[len(c.builders)-1]})
		}
	}
	return c
}

// putLanes gives back the lanes c holds.
func (c *consolidation) putLanes() {
	for i := len(c.lanes) - 1; i >= 0; i-- {
		idleLanes.Put(nil, c.lanes[i])
	}
}

// piece merges piece i into its builder.
func (c *consolidation) piece(i int) {
	pc := &c.pieces[i]
	if c.combine != nil {
		pc.b.combineFrom(pc.merge, pc.part, c.combine)
		return
	}
	for len(pc.merge) > 0 { // the merged pairs come sorted: append each with its count
		r, src, n := pc.merge.pop()
		pc.b.add(pc.part, src.key(r), src.value(r), n)
	}
}

// seal seals the builders into the consolidated output and gives them
// back (in reverse, so the next consolidation takes them in piece order)
// with the lanes. A combined partition cut into ranges is sorted again: a
// combiner's keys may leave their range's order.
func (c *consolidation) seal(group []*MapOutput) *Consolidated {
	out := seal(c.builders...)
	if c.combine != nil && len(c.pieces) > len(out.Partitions) {
		for p := range out.Partitions {
			sortIndex(out.Partitions[p], out.counts[p], &out.store)
		}
	}
	for i := len(c.builders) - 1; i >= 0; i-- {
		c.builders[i].release()
	}
	c.putLanes()
	out.Split, out.Resident = group[0].Split, group[0].Resident
	out.InMemory = true
	for _, mo := range group {
		out.Records += mo.Records
		out.InMemory = out.InMemory && mo.InMemory
	}
	return &Consolidated{Out: out, Members: group}
}

// RawPartBytes sums the members' original (pre-consolidation) bytes for one
// partition — what the service merges on the source node.
func (c *Consolidated) RawPartBytes(part int) int64 {
	var n int64
	for _, mo := range c.Members {
		n += mo.PartBytes[part]
	}
	return n
}

// SpilledPartBytes sums the members' on-disk bytes for one partition: the
// service's disk read at the source. U+ in-memory outputs cost nothing to
// pick up.
func (c *Consolidated) SpilledPartBytes(part int) int64 {
	var n int64
	for _, mo := range c.Members {
		if !mo.InMemory {
			n += mo.PartBytes[part]
		}
	}
	return n
}

// ShuffleWireRatio reports how the attached shuffle service (if any) scales
// shuffled bytes relative to raw map output; 1 without a service. The
// speculative decision maker multiplies s^o by this so Equation 3 prices
// the post-combine, post-compress shuffle.
func (rt *Runtime) ShuffleWireRatio(spec *JobSpec) float64 {
	return rt.shuffleProvider().WireRatio(spec)
}
