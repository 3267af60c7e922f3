package mapreduce

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"mrapid/internal/hdfs"
)

// MapCache memoizes the pure host work of map and reduce tasks across
// simulations. The benchmark harness compares four execution modes over
// byte-identical inputs; the real output of a map or a reduce is the same
// every time, only the virtual-clock charges differ, so recomputing it per
// mode is pure host-CPU waste. The cache never affects simulated timing: a
// task's body costs no virtual time whether it hits or misses.
//
//   - What: map outputs, keyed by cacheKey, and part files, keyed by
//     reduceKey, in two tables of one kind. A spec that is not reusable
//     (JobSpec.Identity) gets no key and is never looked up or stored.
//   - Where: in host memory, shared by every Runtime it is attached to.
//   - Eviction: oldest first, map and reduce entries in one FIFO ledger,
//     once the retained host bytes exceed the budget.
//   - Invalidation: none is needed. A key names the computation and its
//     input bytes (a map's by the digest of its hdfs.Content, a reduce's by
//     the keys of its map outputs), so changed bytes make another key.
//
// MapCache is safe for concurrent use: simulations driven from different
// goroutines — mrapid-bench's concurrent experiments, parallel tests — share
// one cache. One mutex guards both tables and the ledger; a lookup happens
// once per split or partition per attempt, and an attempt that misses while
// another computes the same key shares its body instead (see memoBody).
type MapCache struct {
	maps    table[cacheKey, *MapOutput]
	reduces table[reduceKey, Reduced]

	mu    sync.Mutex // guards both tables' entries and the ledger
	limit int64
	used  int64
	order []func() int64 // FIFO eviction: each deletes its entry and returns the bytes it retained
}

// table is one kind of MapCache entry: its entries and lookup counts, and
// what differs between kinds — what an entry keeps, and how a reader gets a
// copy of its own.
type table[K comparable, V any] struct {
	c            *MapCache
	entries      map[K]V
	hits, misses atomic.Int64

	// keep returns the value the caller goes on to use in place of v, the
	// entry to store, and the host bytes the entry retains.
	keep func(k K, v V) (own, entry V, retained int64)
	// share returns a reader's own view of a stored value.
	share func(V) V
}

// cacheKey names one split's map output: the computation, the split's
// coordinates, and the digest of its content guarding against two
// generators producing different bytes under the same names. The file
// stays in the key even though the digest alone tells contents apart:
// MapFor receives the file, and a repartition join tags each row with its
// side by it, so equal bytes under two names can map differently.
type cacheKey struct {
	id      uint64 // JobSpec.Identity
	file    string
	offset  int64
	size    int
	content uint64
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

// NewMapCache creates a cache that evicts oldest-first once the retained
// host bytes exceed limit.
func NewMapCache(limitBytes int64) *MapCache {
	if limitBytes <= 0 {
		panic("mapreduce: MapCache needs a positive limit")
	}
	c := &MapCache{limit: limitBytes}
	c.maps = table[cacheKey, *MapOutput]{c: c, entries: make(map[cacheKey]*MapOutput), keep: keepMap, share: shareMap}
	c.reduces = table[reduceKey, Reduced]{c: c, entries: make(map[reduceKey]Reduced), keep: keepReduce, share: shareAsIs}
	return c
}

// key returns the map table and the key of one size-byte split read with
// content, or a nil table when there is no cache or the spec is not
// reusable. Only a key asks content for its digest, so a run without a
// cache hashes nothing. The digest covers the full content: an earlier key
// sampled three 4 KiB windows, which let two same-length splits differing
// only outside the windows collide — a silent wrong-output bug on a hit.
func (c *MapCache) key(spec *JobSpec, file string, offset int64, size int, content *hdfs.Content) (*table[cacheKey, *MapOutput], cacheKey) {
	if c == nil {
		return nil, cacheKey{}
	}
	id, ok := spec.Identity()
	if !ok {
		return nil, cacheKey{}
	}
	return &c.maps, cacheKey{id: id, file: file, offset: offset, size: size, content: content.Digest()}
}

// reduceKeyFor returns the reduce table and the key of partition part's
// reduce over outputs, or a nil table when there is no cache, the spec is
// not reusable, or some output did not come through the cache — a
// shuffle-service consolidation, say, which is keyed by nothing.
func (c *MapCache) reduceKeyFor(spec *JobSpec, part int, outputs []*MapOutput) (*table[reduceKey, Reduced], reduceKey) {
	if c == nil || len(outputs) == 0 {
		return nil, reduceKey{}
	}
	id, ok := spec.Identity()
	if !ok {
		return nil, reduceKey{}
	}
	inputs := make([]*cacheKey, len(outputs))
	size := 0
	for i, mo := range outputs {
		if mo.cached == nil {
			return nil, reduceKey{}
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
	return &c.reduces, reduceKey{id: id, part: part, inputs: sb.String()}
}

// compareCacheKeys is a total order on cacheKeys, the one a reduce's inputs
// are sorted into.
func compareCacheKeys(a, b *cacheKey) int {
	return cmp.Or(cmp.Compare(a.file, b.file), cmp.Compare(a.offset, b.offset),
		cmp.Compare(a.size, b.size), cmp.Compare(a.content, b.content), cmp.Compare(a.id, b.id))
}

// lookup returns the reader's own view of the value stored under k, if
// any, and counts the hit or the miss.
func (t *table[K, V]) lookup(k K) (V, bool) {
	t.c.mu.Lock()
	v, ok := t.entries[k]
	t.c.mu.Unlock()
	if !ok {
		t.misses.Add(1)
		return v, false
	}
	t.hits.Add(1)
	return t.share(v), true
}

// store saves what keep makes of v under k, books it in the ledger, and
// returns the v the caller goes on to use. Oldest entries, map or reduce
// alike, are evicted down to the budget — always keeping at least one, so
// an oversized entry still memoizes. Concurrent stores of one key keep the
// first; the cache never holds two entries for one key.
func (t *table[K, V]) store(k K, v V) V {
	v, entry, retained := t.keep(k, v)
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := t.entries[k]; exists {
		return v
	}
	t.entries[k] = entry
	c.order = append(c.order, func() int64 {
		delete(t.entries, k)
		return retained
	})
	c.used += retained
	for c.used > c.limit && len(c.order) > 1 {
		evict := c.order[0]
		c.order[0] = nil
		c.order = c.order[1:]
		c.used -= evict()
	}
	return v
}

// keepMap keeps a map output's pairs, sizes and counts, with no split or
// holder, and stamps the entry and the caller's output with its key. It
// books what the entry keeps alive: the indexes and their counts, the slab,
// and the input block the indexes point into.
func keepMap(k cacheKey, mo *MapOutput) (*MapOutput, *MapOutput, int64) {
	retained := int64(len(mo.input) + cap(mo.slab))
	for p, idx := range mo.Partitions {
		retained += int64(cap(idx))*recSize + int64(cap(mo.counts[p]))*4
	}
	e := &struct {
		key cacheKey
		out MapOutput
	}{key: k, out: MapOutput{store: mo.store, Partitions: mo.Partitions, counts: mo.counts,
		PartBytes: slices.Clone(mo.PartBytes), TotalBytes: mo.TotalBytes, Records: mo.Records}}
	e.out.cached, mo.cached = &e.key, &e.key
	return mo, &e.out, retained
}

// shareMap gives a reader a MapOutput of its own, with its own PartBytes —
// callers treat it as theirs — over the shared, immutable partition data.
func shareMap(mo *MapOutput) *MapOutput {
	out := *mo
	out.PartBytes = slices.Clone(out.PartBytes)
	return &out
}

// keepReduce keeps a part file, copied to its length when ExecReduce's
// presized buffer left much of it unused (a reducer that aggregates writes
// far less than its input), so that neither the entry nor the job that
// commits it pins the slack.
func keepReduce(k reduceKey, r Reduced) (Reduced, Reduced, int64) {
	if n := len(r.Encoded); cap(r.Encoded) > n+n/8 {
		r.Encoded = bytes.Clone(r.Encoded)
	}
	return r, r, int64(cap(r.Encoded) + len(k.inputs))
}

// shareAsIs shares a part file's bytes with every reader: they are
// read-only, like every HDFS block, and HDFS and the intermediate store
// never write into block data.
func shareAsIs(r Reduced) Reduced { return r }

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
func (c *MapCache) Hits() int64 { return c.maps.hits.Load() }

// Misses reports how many map lookups came up empty.
func (c *MapCache) Misses() int64 { return c.maps.misses.Load() }

// ReduceHits reports how many reduce lookups found an entry.
func (c *MapCache) ReduceHits() int64 { return c.reduces.hits.Load() }

// ReduceMisses reports how many reduce lookups came up empty.
func (c *MapCache) ReduceMisses() int64 { return c.reduces.misses.Load() }
