package mapreduce

import (
	"hash/maphash"
	"slices"
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
	order []cacheKey // FIFO eviction, one per entry

	hits   atomic.Int64
	misses atomic.Int64
}

const cacheShardCount = 16

type cacheShard struct {
	mu      sync.Mutex
	entries map[cacheKey]*cachedExec
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
// no split or holder — and the host bytes it keeps alive.
type cachedExec struct {
	out      MapOutput
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

// lookup returns a previously computed result for identical input, if any.
// The returned MapOutput gets its own PartBytes slice — callers treat it as
// their own — while the (immutable once stored) partition data is shared.
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

// store saves a computed result, evicting oldest entries past the budget.
// Concurrent stores of the same key keep the first; the cache never holds
// two entries for one key.
func (c *MapCache) store(k cacheKey, mo *MapOutput) {
	// What the entry keeps alive: the indexes and their counts, the slab,
	// and the input block the indexes point into.
	retained := int64(len(mo.input) + cap(mo.slab))
	for p, idx := range mo.Partitions {
		retained += int64(cap(idx))*recSize + int64(cap(mo.counts[p]))*4
	}
	e := &cachedExec{retained: retained, out: MapOutput{store: mo.store, Partitions: mo.Partitions, counts: mo.counts,
		PartBytes: slices.Clone(mo.PartBytes), TotalBytes: mo.TotalBytes, Records: mo.Records}}
	s := c.shardFor(k)
	s.mu.Lock()
	if _, exists := s.entries[k]; exists {
		s.mu.Unlock()
		return
	}
	s.entries[k] = e
	s.mu.Unlock()

	c.mu.Lock()
	c.order = append(c.order, k)
	c.used += retained
	// Evict down to the budget, always keeping at least one entry so
	// oversized splits still memoize.
	for c.used > c.limit && len(c.order) > 1 {
		victim := c.order[0]
		c.order = c.order[1:]
		vs := c.shardFor(victim)
		vs.mu.Lock()
		if v, ok := vs.entries[victim]; ok {
			c.used -= v.retained
			delete(vs.entries, victim)
		}
		vs.mu.Unlock()
	}
	c.mu.Unlock()
}

// Len reports the number of cached map results.
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

// Hits reports how many lookups found an entry.
func (c *MapCache) Hits() int64 { return c.hits.Load() }

// Misses reports how many lookups came up empty.
func (c *MapCache) Misses() int64 { return c.misses.Load() }
