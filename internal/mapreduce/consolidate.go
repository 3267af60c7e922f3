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
// through the job's combiner when it has one, copied into one new flat
// output that pins none of the members' input blocks; without a combiner
// each merged pair keeps its count. Pure computation —
// the shuffle service charges the virtual cost separately. Correctness
// rests on compareRecs breaking key ties by value: merging sorted runs in
// any grouping yields the same final sequence the reducer would have merged
// per map, so job output is byte-identical with or without consolidation.
func ConsolidateGroup(spec *JobSpec, group []*MapOutput) *Consolidated {
	if len(group) == 0 {
		panic("mapreduce: ConsolidateGroup needs a non-empty group")
	}
	if len(group) == 1 {
		// A single output needs no merge, and re-running the combiner over
		// already-combined data would only re-serialize identical values.
		return &Consolidated{Out: group[0], Members: group}
	}
	first := group[0]
	var split string
	if first.Split != nil {
		split = first.Split.File
	}
	b := newOutputBuilder(split, nil, spec.NumReduces, 64, maxOffset)
	for p := 0; p < spec.NumReduces; p++ {
		if spec.Combine != nil {
			b.combineFrom(group, p, spec.Combine)
			continue
		}
		// The merged pairs come sorted: append each with its count.
		for m := newMerger(group, p); len(m) > 0; {
			r, src, n := m.pop()
			b.add(p, src.key(r), src.value(r), n)
		}
	}
	out := b.output()
	out.Split, out.Resident = first.Split, first.Resident
	out.InMemory = true
	for _, mo := range group {
		out.Records += mo.Records
		if !mo.InMemory {
			out.InMemory = false
		}
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
