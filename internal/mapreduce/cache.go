package mapreduce

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// MapCache memoizes pure ExecMap results across simulations. The benchmark
// harness compares four execution modes over byte-identical inputs; the map
// function's real output is the same every time, only the virtual-clock
// charges differ, so recomputing it per mode is pure host-CPU waste. The
// cache is keyed by the job's computation identity (JobSpec.Identity) plus
// the split's coordinates and a hash of its full content, and it never
// affects simulated timing: ExecMap is instantaneous on the virtual clock
// whether it hits or misses. A spec that is not reusable is never looked up
// or stored.
//
// The cache keeps reduces too: a reduce whose every input came through the
// cache is keyed by the job's identity, the partition, and the multiset of
// its inputs' keys (see reduceKey), and a hit hands back the part file an
// earlier reduce over the same map outputs produced. Reduce entries share
// the byte budget and the FIFO ledger with map entries.
//
// MapCache is safe for concurrent use: entries live in sharded,
// mutex-protected maps so simulations driven from different goroutines —
// mrapid-bench's concurrent experiments, parallel tests — can share one
// cache and hit it simultaneously, and a single mutex-protected FIFO ledger
// enforces the global byte budget on the rarer store path.
type MapCache struct {
	shards [cacheShardCount]cacheShard

	// mu guards the eviction ledger: insertion order and retained bytes.
	mu    sync.Mutex
	limit int64
	used  int64
	order []any // FIFO eviction, one cacheKey or reduceKey per entry

	hits, misses             atomic.Int64 // map lookups
	reduceHits, reduceMisses atomic.Int64
}

const cacheShardCount = 16

type cacheShard struct {
	mu      sync.Mutex
	entries map[cacheKey]*cachedExec
	reduces map[reduceKey]*cachedReduce
}

// cacheKey names one split's map output: the computation, the split's
// coordinates, and the full-content hash guarding against two generators
// producing different bytes under the same names.
type cacheKey struct {
	id      uint64 // JobSpec.Identity
	file    string
	offset  int64
	size    int
	content uint64
}

// cachedExec is one stored map output — its pairs, sizes and counts, with
// no split or holder — its key, and the host bytes it keeps alive.
type cachedExec struct {
	key      cacheKey
	out      MapOutput
	retained int64
}

// reduceKey names one reduce's part file: the computation, the partition,
// and the sorted cacheKeys of the map outputs it merges, encoded into one
// string so that a lookup compares every one of them. Sorted, because
// outputs reach an AM in completion order, which differs per mode, while
// the order a merge is fed never reaches a reducer: compareRecs orders pairs
// totally by (key, value), byte-identical pairs are interchangeable, and
// Values leaves run boundaries undefined.
type reduceKey struct {
	id     uint64 // JobSpec.Identity
	part   int
	inputs string
}

// cachedReduce is one stored part file and the host bytes it keeps alive.
type cachedReduce struct {
	out      Reduced
	retained int64
}

// NewMapCache creates a cache that evicts oldest-first once the retained
// host bytes exceed limit.
func NewMapCache(limitBytes int64) *MapCache {
	if limitBytes <= 0 {
		panic("mapreduce: MapCache needs a positive limit")
	}
	c := &MapCache{limit: limitBytes}
	for i := range c.shards {
		c.shards[i].entries = make(map[cacheKey]*cachedExec)
		c.shards[i].reduces = make(map[reduceKey]*cachedReduce)
	}
	return c
}

// key builds the cache key of one split, or reports that there is no cache
// or the spec is not reusable.
func (c *MapCache) key(spec *JobSpec, file string, offset int64, data []byte) (cacheKey, bool) {
	if c == nil {
		return cacheKey{}, false
	}
	id, ok := spec.Identity()
	if !ok {
		return cacheKey{}, false
	}
	return cacheKey{id: id, file: file, offset: offset, size: len(data), content: fingerprint(data)}, true
}

// fingerprintSeed is fixed per process; the cache never outlives it.
var fingerprintSeed = maphash.MakeSeed()

// fingerprint hashes the entire split content. An earlier version sampled
// three 4 KiB windows, which let two same-length splits differing only
// outside the windows collide — a silent wrong-output bug on a cache hit.
// Hashing everything (maphash runs at memory speed) is still far cheaper
// than re-running the map function.
func fingerprint(data []byte) uint64 {
	return maphash.Bytes(fingerprintSeed, data)
}

// shardFor picks the shard holding a key.
func (c *MapCache) shardFor(k cacheKey) *cacheShard {
	return &c.shards[(k.content^k.id)%cacheShardCount]
}

// lookup returns a previously computed result for identical input, if any,
// stamped with its key. The returned MapOutput gets its own PartBytes slice
// — callers treat it as their own — while the (immutable once stored)
// partition data is shared.
func (c *MapCache) lookup(k cacheKey) (*MapOutput, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	out := e.out
	out.PartBytes = slices.Clone(out.PartBytes)
	return &out, true
}

// store saves a computed result, evicting oldest entries past the budget,
// and stamps mo with its key. Concurrent stores of the same key keep the
// first; the cache never holds two entries for one key.
func (c *MapCache) store(k cacheKey, mo *MapOutput) {
	// What the entry keeps alive: the indexes and their counts, the slab,
	// and the input block the indexes point into.
	retained := int64(len(mo.input) + cap(mo.slab))
	for p, idx := range mo.Partitions {
		retained += int64(cap(idx))*recSize + int64(cap(mo.counts[p]))*4
	}
	e := &cachedExec{key: k, retained: retained, out: MapOutput{store: mo.store, Partitions: mo.Partitions, counts: mo.counts,
		PartBytes: slices.Clone(mo.PartBytes), TotalBytes: mo.TotalBytes, Records: mo.Records}}
	e.out.cached, mo.cached = &e.key, &e.key
	s := c.shardFor(k)
	s.mu.Lock()
	if _, exists := s.entries[k]; exists {
		s.mu.Unlock()
		return
	}
	s.entries[k] = e
	s.mu.Unlock()
	c.admit(k, retained)
}

// admit books a new entry, keyed k, in the FIFO ledger and evicts oldest
// entries, map or reduce alike, down to the budget, always keeping at least
// one entry so oversized splits still memoize.
func (c *MapCache) admit(k any, retained int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order = append(c.order, k)
	c.used += retained
	for c.used > c.limit && len(c.order) > 1 {
		victim := c.order[0]
		c.order = c.order[1:]
		c.used -= c.evict(victim)
	}
}

// evict drops the entry keyed k and returns the bytes it retained.
func (c *MapCache) evict(k any) int64 {
	switch k := k.(type) {
	case cacheKey:
		s := c.shardFor(k)
		s.mu.Lock()
		defer s.mu.Unlock()
		if e, ok := s.entries[k]; ok {
			delete(s.entries, k)
			return e.retained
		}
	case reduceKey:
		s := c.reduceShard(k)
		s.mu.Lock()
		defer s.mu.Unlock()
		if e, ok := s.reduces[k]; ok {
			delete(s.reduces, k)
			return e.retained
		}
	}
	return 0
}

// reduceKeyFor builds the key of partition part's reduce over outputs, or
// reports that there is no cache, the spec is not reusable, or some output
// did not come through the cache — a shuffle-service consolidation, say,
// which is keyed by nothing.
func (c *MapCache) reduceKeyFor(spec *JobSpec, part int, outputs []*MapOutput) (reduceKey, bool) {
	if c == nil || len(outputs) == 0 {
		return reduceKey{}, false
	}
	id, ok := spec.Identity()
	if !ok {
		return reduceKey{}, false
	}
	inputs := make([]*cacheKey, len(outputs))
	size := 0
	for i, mo := range outputs {
		if mo.cached == nil {
			return reduceKey{}, false
		}
		inputs[i] = mo.cached
		size += 4*8 + binary.MaxVarintLen64 + len(mo.cached.file)
	}
	slices.SortFunc(inputs, compareCacheKeys)
	// Each key as its fixed-width fields, then its file name behind its
	// length, so that the concatenation reads back one way only.
	var sb strings.Builder
	sb.Grow(size)
	var num [8]byte
	for _, k := range inputs {
		for _, v := range [...]uint64{k.id, uint64(k.offset), uint64(k.size), k.content} {
			sb.Write(binary.LittleEndian.AppendUint64(num[:0], v))
		}
		sb.Write(binary.AppendUvarint(num[:0], uint64(len(k.file))))
		sb.WriteString(k.file)
	}
	return reduceKey{id: id, part: part, inputs: sb.String()}, true
}

// compareCacheKeys is a total order on cacheKeys, the one a reduce's inputs
// are sorted into.
func compareCacheKeys(a, b *cacheKey) int {
	return cmp.Or(cmp.Compare(a.file, b.file), cmp.Compare(a.offset, b.offset),
		cmp.Compare(a.size, b.size), cmp.Compare(a.content, b.content), cmp.Compare(a.id, b.id))
}

// reduceShard picks the shard holding a reduce key.
func (c *MapCache) reduceShard(k reduceKey) *cacheShard {
	return &c.shards[maphash.String(fingerprintSeed, k.inputs)%cacheShardCount]
}

// lookupReduce returns the part file an earlier reduce under the same key
// produced, if any. Its bytes are shared and read-only, like every HDFS
// block.
func (c *MapCache) lookupReduce(k reduceKey) (Reduced, bool) {
	s := c.reduceShard(k)
	s.mu.Lock()
	e, ok := s.reduces[k]
	s.mu.Unlock()
	if !ok {
		c.reduceMisses.Add(1)
		return Reduced{}, false
	}
	c.reduceHits.Add(1)
	return e.out, true
}

// storeReduce saves a reduce's part file and returns the one to commit: the
// same bytes, copied to their length when ExecReduce's presized buffer left
// much of it unused (a reducer that aggregates writes far less than its
// input), so neither the entry nor the job pins the slack. Concurrent stores
// of one key keep the first.
func (c *MapCache) storeReduce(k reduceKey, r Reduced) Reduced {
	if n := len(r.Encoded); cap(r.Encoded) > n+n/8 {
		r.Encoded = bytes.Clone(r.Encoded)
	}
	retained := int64(cap(r.Encoded) + len(k.inputs))
	s := c.reduceShard(k)
	s.mu.Lock()
	if _, exists := s.reduces[k]; exists {
		s.mu.Unlock()
		return r
	}
	s.reduces[k] = &cachedReduce{out: r, retained: retained}
	s.mu.Unlock()
	c.admit(k, retained)
	return r
}

// Len reports the number of cached map and reduce results.
func (c *MapCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.order)
}

// Used reports the retained host bytes.
func (c *MapCache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Hits reports how many map lookups found an entry.
func (c *MapCache) Hits() int64 { return c.hits.Load() }

// Misses reports how many map lookups came up empty.
func (c *MapCache) Misses() int64 { return c.misses.Load() }

// ReduceHits reports how many reduce lookups found an entry.
func (c *MapCache) ReduceHits() int64 { return c.reduceHits.Load() }

// ReduceMisses reports how many reduce lookups came up empty.
func (c *MapCache) ReduceMisses() int64 { return c.reduceMisses.Load() }
