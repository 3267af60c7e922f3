package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"mrapid/internal/mapreduce"
	"mrapid/internal/memo"
	"mrapid/internal/profiler"
	"mrapid/internal/trace"
)

// ModeMemo labels results served from the cross-job memoization cache: no
// AM, no containers, the committed output of an earlier identical run
// materialized under the "memo" transport.
const ModeMemo ModeKind = "memo"

// memoIdentity resolves a spec's cache identity: the key is JobSpec.Identity
// (the MapCache's key too) over the names of its HDFS inputs; the digest is
// what they hold now — each one's write-generation digest, plus the DAG
// runner's lineage digest (MemoDigest) for intermediate-store inputs, whose
// query-scoped names say nothing about content. A spec that is not reusable,
// or whose inputs cannot be digested, is not memoizable.
func (f *Framework) memoIdentity(spec *mapreduce.JobSpec) (key string, digest uint64, ok bool) {
	if f.Memo == nil {
		return "", 0, false
	}
	id, ok := spec.Identity()
	if !ok {
		return "", 0, false
	}
	inputs := slices.Clone(spec.InputFiles)
	slices.Sort(inputs)
	named := inputs[:0]
	lineage := false
	h := fnv.New64a()
	for _, in := range inputs {
		if st := f.RT.Intermediates; st != nil && st.Has(in) {
			if spec.MemoDigest == 0 {
				return "", 0, false
			}
			lineage = true
			continue
		}
		d, err := f.RT.DFS.FileDigest(in)
		if err != nil {
			return "", 0, false
		}
		named = append(named, in)
		h.Write([]byte(in))
		h.Write(binary.LittleEndian.AppendUint64(nil, d))
	}
	if lineage {
		h.Write(binary.LittleEndian.AppendUint64(nil, spec.MemoDigest))
	}
	return mapreduce.Fingerprint(id, named), h.Sum64(), true
}

// viaMemo consults the cache once per submission. A hit materializes the
// cached output and delivers a ModeMemo result to served — no upload, no AM,
// no containers. A miss of any flavor — absent, invalidated by an input
// write, or lost with a dead disk node, even under the read itself: the
// stale-entry fault-tolerance contract — calls run, which executes the job
// and threads commit through its completion so a successful fresh result is
// cached (errors and partial runs never are). A spec that is not memoizable
// runs with a commit that does nothing.
func (f *Framework) viaMemo(spec *mapreduce.JobSpec, served func(*mapreduce.Result), run func(commit func(*mapreduce.Result))) {
	key, digest, ok := f.memoIdentity(spec)
	if !ok {
		run(func(*mapreduce.Result) {})
		return
	}
	commit := func(res *mapreduce.Result) {
		if res == nil || res.Err != nil {
			return
		}
		parts, ok := f.memoCollect(spec)
		if !ok {
			return
		}
		var cost float64
		if res.Profile != nil {
			cost = res.Profile.Elapsed().Seconds()
		}
		f.Memo.Commit(key, digest, parts, cost)
	}
	hit, err := f.Memo.Lookup(key, digest)
	if err != nil {
		run(commit)
		return
	}
	f.materializeMemo(spec, hit, served, func() {
		// The holder died after the lookup: this second lookup finds the
		// entry unreadable, drops it and counts the loss.
		_, err := f.Memo.Lookup(key, digest)
		if f.RT.Trace != nil {
			f.RT.Trace.Mark(0, "memo", "entry lost; executing", trace.A("job", spec.Name), trace.A("error", fmt.Sprint(err)))
		}
		run(commit)
	})
}

// CheckResidency is Runtime.CheckResidency plus the memo cache's tiers.
func (f *Framework) CheckResidency() error {
	return errors.Join(f.RT.CheckResidency(), f.Memo.CheckResidency())
}

// memoCollect snapshots a freshly committed output: one byte slice per
// reduce partition, from the intermediate store (intra-query stages) or
// HDFS. Any unreadable part — e.g. a store entry whose producer died in
// the commit window — aborts the collection; caching a torn output would
// serve corrupt bytes forever.
func (f *Framework) memoCollect(spec *mapreduce.JobSpec) ([][]byte, bool) {
	parts := make([][]byte, spec.NumReduces)
	for p := range parts {
		name := mapreduce.PartFileName(spec.OutputFile, p)
		if st := f.RT.Intermediates; st != nil && st.Has(name) {
			data, ok := st.Contents(name)
			if !ok {
				return nil, false
			}
			parts[p] = data
			continue
		}
		data, err := f.RT.DFS.Contents(name)
		if err != nil {
			return nil, false
		}
		parts[p] = data
	}
	return parts, true
}

// materializeMemo serves a cache hit: after the proxy round-trip (and a
// disk read at the holder for disk-tier entries) the cached part files are
// installed under the spec's output — intermediate store for intra-query
// stages, HDFS otherwise — with each part observed under the "memo"
// shuffle transport. The result carries a minimal profile: zero tasks,
// zero containers, elapsed ≈ the RPC plus any disk read. lost is called
// instead when the disk-tier holder dies before the read completes.
func (f *Framework) materializeMemo(spec *mapreduce.JobSpec, hit *memo.Hit, done func(*mapreduce.Result), lost func()) {
	rt := f.RT
	prof := &profiler.JobProfile{
		Job:         spec.Key(),
		Mode:        string(ModeMemo),
		SubmittedAt: rt.Eng.Now(),
		AMPoolHit:   true,
		NumReduces:  spec.NumReduces,
		Decision:    profiler.Decision{Source: profiler.ByMemo},
	}
	prof.Span = rt.Trace.StartSpan(0, "job", spec.Name+" (memo)", "", trace.A("mode", string(ModeMemo)))
	install := func() {
		rt.DeleteOutputPrefix(spec.OutputFile)
		node := hit.Node
		if node == nil {
			// Memory-tier hits have no holder; intermediate-store entries
			// still need one, so park them on the first live worker (the
			// cache service's local spill target) deterministically.
			for _, w := range rt.Cluster.Workers() {
				if w.Alive() {
					node = w
					break
				}
			}
		}
		for p, data := range hit.Parts {
			name := mapreduce.PartFileName(spec.OutputFile, p)
			if spec.IntermediateOutput && rt.Intermediates != nil && node != nil {
				rt.Intermediates.Put(name, data, node)
			} else {
				rt.DFS.Delete(name)
				if _, err := rt.DFS.PutInstant(name, data, node); err != nil {
					prof.DoneAt = rt.Eng.Now()
					rt.Trace.EndSpan(prof.Span, trace.A("error", err.Error()))
					done(&mapreduce.Result{Spec: spec, Mode: string(ModeMemo), Profile: prof, Err: err})
					return
				}
			}
			rt.ObserveShuffle("memo", "memo", int64(len(data)))
		}
		now := rt.Eng.Now()
		prof.AMReadyAt, prof.FirstTaskAt, prof.MapsDoneAt, prof.DoneAt = now, now, now, now
		rt.Trace.EndSpan(prof.Span, trace.A("memo_hit", "true"))
		done(&mapreduce.Result{Spec: spec, Mode: string(ModeMemo), Profile: prof})
	}
	rt.Eng.After(rt.Params.RPCLatency, func() {
		if hit.InMemory || hit.Bytes == 0 {
			install()
			return
		}
		rt.Cluster.Read(hit.Resident, hit.Node, hit.Bytes, rt.Params.RPCLatency, memo.ErrEntryLost, func(err error) {
			if err != nil {
				rt.Trace.EndSpan(prof.Span, trace.A("error", err.Error()))
				lost()
				return
			}
			install()
		})
	})
}
