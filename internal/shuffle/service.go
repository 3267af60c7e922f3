package shuffle

import (
	"fmt"
	"time"

	"mrapid/internal/mapreduce"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
)

// Service is the per-node shuffle service. One Service instance covers the
// whole cluster (each node's state is keyed by the node), mirroring how one
// auxiliary shuffle handler runs inside every NodeManager. It implements
// mapreduce.ShuffleProvider; Attach wires it into a Runtime.
//
// All methods run on the engine goroutine, like every other simulated
// component; the metrics registry does its own locking.
type Service struct {
	rt    *mapreduce.Runtime
	codec Codec

	// registered counts live committed outputs per node (bookkeeping the
	// AMs maintain through Register/Forget; surfaced as a labeled gauge).
	registered map[*topology.Node]int

	// Consolidation totals. rawBytes/combinedBytes accumulate over every
	// consolidated group; combineRaw/combineOut only over groups whose job
	// had a combiner, which is what the estimator's measured combine ratio
	// must reflect.
	rawBytes      int64
	combinedBytes int64
	combineRaw    int64
	combineOut    int64

	// Transfer totals: post-combine bytes that crossed the network and
	// their on-the-wire (post-compress) size.
	sentRaw  int64
	sentWire int64
}

// Attach builds a Service from the runtime's configured codec and installs
// it as rt.Shuffle. It is how every opt-in site (bench, CLIs, tests)
// enables the service.
func Attach(rt *mapreduce.Runtime) (*Service, error) {
	codec, err := CodecFor(rt.Params)
	if err != nil {
		return nil, err
	}
	s := &Service{rt: rt, codec: codec, registered: make(map[*topology.Node]int)}
	rt.Shuffle = s
	return s, nil
}

// Codec reports the codec the service compresses consolidated partitions
// with.
func (s *Service) Codec() Codec { return s.codec }

// Register notes a committed map output with the service on its node.
func (s *Service) Register(spec *mapreduce.JobSpec, mo *mapreduce.MapOutput) {
	s.registered[mo.Node]++
	s.rt.Reg.GaugeHandle("shuffle_service_registered_outputs", "node", mo.Node.Name).Set(int64(s.registered[mo.Node]))
}

// Forget withdraws a registered output (lost with its node, or its job
// finished and the intermediate data is garbage).
func (s *Service) Forget(spec *mapreduce.JobSpec, mo *mapreduce.MapOutput) {
	if s.registered[mo.Node] > 0 {
		s.registered[mo.Node]--
	}
	s.rt.Reg.GaugeHandle("shuffle_service_registered_outputs", "node", mo.Node.Name).Set(int64(s.registered[mo.Node]))
}

// Registered reports how many committed outputs the service currently holds
// on node.
func (s *Service) Registered(node *topology.Node) int { return s.registered[node] }

// FetchPlan is the service's fetch plan: nothing moves until every map has
// committed — a node's merged partition cannot be finalized while maps are
// still adding to it — then each (node, boot-epoch) group travels as one
// unit. Waiting for the last map trades the per-map shuffle's map-wave
// overlap for the consolidation; for the paper's short jobs the saved
// fetches and bytes outweigh the lost overlap.
func (s *Service) FetchPlan(pending []*mapreduce.MapOutput, mapsDone bool) [][]*mapreduce.MapOutput {
	if !mapsDone {
		return nil
	}
	return mapreduce.GroupOutputsByNode(pending)
}

// Consolidate merges one node's committed outputs into a single synthetic
// output (in-node combining when the job has a combiner) on the runtime's
// host lanes (Runtime.ConsolidateGroup) and folds the byte-reduction into
// the service's running stats and gauges.
func (s *Service) Consolidate(spec *mapreduce.JobSpec, group []*mapreduce.MapOutput) *mapreduce.Consolidated {
	c := s.rt.ConsolidateGroup(spec, group)
	var raw int64
	for _, mo := range group {
		raw += mo.TotalBytes
	}
	s.rawBytes += raw
	s.combinedBytes += c.Out.TotalBytes
	if spec.Combine != nil {
		s.combineRaw += raw
		s.combineOut += c.Out.TotalBytes
	}
	if s.rawBytes > 0 {
		saved := s.rawBytes - s.combinedBytes
		s.rt.Reg.GaugeHandle("shuffle_combine_saved_bytes").Set(saved)
		s.rt.Reg.GaugeHandle("shuffle_combine_reduction_permille").Set(saved * 1000 / s.rawBytes)
	}
	return c
}

// MeasuredCombineRatio is consolidated/raw bytes over combiner jobs so far
// (1 before any combiner traffic).
func (s *Service) MeasuredCombineRatio() float64 {
	if s.combineRaw == 0 {
		return 1
	}
	return float64(s.combineOut) / float64(s.combineRaw)
}

// WireRatio estimates post-combine, post-compress shuffled bytes per raw
// map-output byte: the codec's ratio times the combine reduction measured
// so far. Before the service has seen combiner traffic the combine factor
// is 1 — the estimator never guesses a reduction it has no evidence for.
func (s *Service) WireRatio(spec *mapreduce.JobSpec) float64 {
	r := s.codec.Ratio
	if spec.Combine != nil {
		r *= s.MeasuredCombineRatio()
	}
	return r
}

// Fetch moves one consolidated partition to dst. The cost model, phase by
// phase:
//
//   - the source node's service merges the members' sorted runs and
//     re-combines them (CPU over the raw member bytes, only when there is
//     more than one member), then compresses the consolidated partition —
//     charged as elapsed time on the node but not against a task core: the
//     shuffle handler is a NodeManager auxiliary daemon, not a container.
//     The price reads the member bytes alone, so which host goroutines ran
//     the merge (Consolidate) moves no virtual instant;
//   - one topology.Cluster.Transfer moves the spilled member bytes off the
//     source disk (U+ in-memory members cost nothing to pick up) and the
//     wire-sized bytes across the network;
//   - the destination decompresses before handing the bytes to the reducer.
//
// A same-node fetch skips the codec and the network entirely. A source node
// dying mid-fetch still charges the devices but reports ErrOutputLost — the
// AM then reverts every member of the group through the per-map recovery.
func (s *Service) Fetch(parent trace.SpanID, spec *mapreduce.JobSpec, c *mapreduce.Consolidated, part int, dst *topology.Node, done func(error)) {
	if done == nil {
		panic("shuffle: Fetch needs a completion callback")
	}
	rt := s.rt
	out := c.Out
	if !out.Readable() {
		rt.Eng.After(rt.Params.RPCLatency, func() { done(mapreduce.ErrOutputLost) })
		return
	}
	combined := out.PartBytes[part]
	memberRaw := c.RawPartBytes(part)
	spilled := c.SpilledPartBytes(part)
	wire := s.codec.Wire(combined)
	transport := out.Transport(dst)
	var span trace.SpanID
	if rt.Trace != nil {
		span = rt.Trace.StartSpan(parent, "task/"+dst.Name,
			fmt.Sprintf("fetch %s.p%d (%d maps)", out.Node.Name, part, len(c.Members)), "shuffle",
			trace.A("from", out.Node.Name),
			trace.A("maps", fmt.Sprint(len(c.Members))),
			trace.A("transport", transport),
			trace.A("raw_bytes", fmt.Sprint(memberRaw)),
			trace.A("bytes", fmt.Sprint(combined)),
			trace.A("wire_bytes", fmt.Sprint(wire)))
	}

	finish := rt.TrackFetch(span, "consolidated", transport, wire, done)

	// The cross-task merge happens once per consolidated partition on the
	// source, whatever the transport; it replaces reduce-side merge work
	// the per-map shuffle would have charged over the raw bytes.
	prep := time.Duration(0)
	if len(c.Members) > 1 {
		prep += time.Duration(float64(memberRaw) / (rt.Params.SortCPUBytesPerSec * out.Node.Type.CPUSpeed) * float64(time.Second))
	}

	// arrived closes a fetch whose bytes have moved: a source lost meanwhile
	// still fails it.
	arrived := func(moved int64) {
		if !out.Readable() {
			finish(0, mapreduce.ErrOutputLost)
			return
		}
		finish(moved, nil)
	}

	if out.Node == dst {
		// Local pickup: spilled members come off the disk, in-memory ones
		// straight from the heap; no codec on a loopback transfer.
		rt.Eng.After(prep, func() {
			if spilled == 0 {
				arrived(combined)
				return
			}
			rt.Cluster.Transfer(dst, dst, spilled, 0, func() { arrived(spilled) })
		})
		return
	}

	prep += s.codec.CompressTime(combined, out.Node)
	rt.Eng.After(prep, func() {
		if wire == 0 || !out.Readable() {
			arrived(0)
			return
		}
		rt.Cluster.Transfer(out.Node, dst, spilled, wire, func() {
			rt.Eng.After(s.codec.DecompressTime(combined, dst), func() {
				if out.Readable() {
					s.sentRaw += combined
					s.sentWire += wire
					if s.sentRaw > 0 {
						rt.Reg.GaugeHandle("shuffle_compress_saved_bytes").Set(s.sentRaw - s.sentWire)
						rt.Reg.GaugeHandle("shuffle_compression_ratio_permille").Set(s.sentWire * 1000 / s.sentRaw)
					}
				}
				arrived(wire)
			})
		})
	})
}
