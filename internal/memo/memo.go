// Package memo is the cluster-wide, cross-job memoization cache: a
// digest-keyed map from (job-spec fingerprint × input write-generation
// digest) to the job's committed output bytes. MRapid's U+ cache memoizes
// map outputs *within* one job; this cache closes the loop *across* jobs —
// a repeat submission of an identical computation over unchanged inputs is
// answered from the cache and never launches an AM or a single container.
//
// Entries live in two tiers. The memory tier models the cache service's own
// replicated RAM: no single holder, always readable, bounded by
// Config.MemBytes. Overflow is demoted to the disk tier — a single
// unreplicated copy on one worker's local disk, a topology.Resident exactly
// like intra-query intermediates — and is lost when that node dies or
// reboots; a lookup then fails with ErrEntryLost and the caller falls
// through to normal execution.
//
// Eviction is cost-aware, not LRU: the victim is the entry with the lowest
// recomputation-cost-per-byte (measured job seconds over output bytes), so
// the cache preferentially keeps outputs that are expensive to regenerate
// and cheap to hold — the survey's "benefit density" policy, priced with
// the job's own measured runtime rather than a model guess.
//
// All methods run on the engine goroutine; the mutex only guards the
// counters' visibility to host-side test goroutines under -race.
package memo

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"mrapid/internal/metrics"
	"mrapid/internal/topology"
)

// ErrMiss reports that no usable entry exists for the key; the caller runs
// the job normally and commits the result.
var ErrMiss = errors.New("memo: no entry")

// ErrEntryLost reports that the entry's backing disk node died or rebooted
// since the commit: the key matched and the inputs are unchanged, but the
// bytes are gone. The entry is dropped and the caller falls through to
// normal execution — the fault-tolerance contract of satellite disk tiers.
var ErrEntryLost = errors.New("memo: cached output lost with its disk node")

// Config sizes a Cache; zero fields fall back to the defaults the
// costmodel's MemoMemBytes / MemoDiskBytes knobs carry.
type Config struct {
	MemBytes  int64
	DiskBytes int64
}

// Hit is a successful lookup: the cached output and where it resides, so
// the materializer can price the read (free from the memory tier, a disk
// read from the holder otherwise).
type Hit struct {
	Parts [][]byte
	Bytes int64
	Cost  float64 // measured recomputation cost, virtual seconds: what a hit saves

	topology.Resident // holder-less in the memory tier, the disk-tier holder after demotion
}

// entry is one memoized job output: what a hit returns, under its identity.
type entry struct {
	key    string
	digest uint64
	seq    int64 // insertion order, the deterministic tie-break
	Hit
}

// costPerByte is the eviction priority: cheapest recomputation per cached
// byte goes first. Empty outputs are free to hold and never selected.
func (e *entry) costPerByte() float64 {
	if e.Bytes == 0 {
		return 0
	}
	return e.Cost / float64(e.Bytes)
}

// Cache is the cluster-wide memoization service.
type Cache struct {
	mu      sync.Mutex
	workers []*topology.Node
	entries map[string]*entry
	mem     topology.Budget
	dsk     topology.Budget
	seq     int64

	hits, misses, invalidations, evictions, lost int64

	mHits, mMisses, mInval, mEvict, mLost metrics.Counter
}

// New builds an empty cache over the cluster's workers (the disk-tier
// placement domain). reg may be nil; the counters then stay internal.
func New(reg *metrics.Registry, workers []*topology.Node, cfg Config) *Cache {
	if cfg.MemBytes <= 0 {
		cfg.MemBytes = 256 << 20
	}
	if cfg.DiskBytes <= 0 {
		cfg.DiskBytes = 1 << 30
	}
	return &Cache{
		mem:     topology.Budget{Cap: cfg.MemBytes},
		dsk:     topology.Budget{Cap: cfg.DiskBytes},
		workers: workers,
		entries: make(map[string]*entry),
		mHits:   reg.CounterHandle("memo_hits_total"),
		mMisses: reg.CounterHandle("memo_misses_total"),
		mInval:  reg.CounterHandle("memo_invalidations_total"),
		mEvict:  reg.CounterHandle("memo_evictions_total"),
		mLost:   reg.CounterHandle("memo_lost_total"),
	}
}

// Lookup resolves a key against the current input digest. Exactly one of
// hits/misses advances per call; invalidations (digest moved — an input
// block was rewritten) and losses (disk node died) additionally advance
// their own counters and drop the dead entry before reporting the miss.
func (c *Cache) Lookup(key string, digest uint64) (*Hit, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		c.mMisses.Inc()
		return nil, ErrMiss
	}
	if e.digest != digest {
		c.drop(e)
		c.invalidations++
		c.mInval.Inc()
		c.misses++
		c.mMisses.Inc()
		return nil, fmt.Errorf("%w (input generation moved)", ErrMiss)
	}
	if !e.Readable() {
		c.drop(e)
		c.lost++
		c.mLost.Inc()
		c.misses++
		c.mMisses.Inc()
		return nil, ErrEntryLost
	}
	c.hits++
	c.mHits.Inc()
	hit := e.Hit
	return &hit, nil
}

// Commit stores a finished job's output under its cache identity,
// replacing any stale entry for the key. costSeconds is the measured
// completion time — the recomputation this entry will save, and the
// numerator of its eviction priority. Outputs too large for even the disk
// budget are not cached. The entry keeps parts as they are: they are HDFS
// blocks or intermediate-store views, which nothing writes into — a file
// deleted and rewritten gets new blocks, and Append copies a block before
// it grows it — so the caller must not change them either.
func (c *Cache) Commit(key string, digest uint64, parts [][]byte, costSeconds float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		c.drop(old)
	}
	var bytes int64
	for _, p := range parts {
		bytes += int64(len(p))
	}
	if bytes > c.mem.Cap && bytes > c.dsk.Cap {
		return
	}
	c.seq++
	e := &entry{key: key, digest: digest, seq: c.seq, Hit: Hit{
		Parts: parts, Bytes: bytes, Cost: costSeconds, Resident: topology.Resident{InMemory: true},
	}}
	c.entries[key] = e
	c.mem.Hold(bytes)
	c.rebalance()
}

// drop removes an entry and refunds its tier budget. Caller holds the lock.
func (c *Cache) drop(e *entry) {
	if e.InMemory {
		c.mem.Refund(e.Bytes)
	} else {
		c.dsk.Refund(e.Bytes)
	}
	delete(c.entries, e.key)
}

// victims returns the entries of one tier ordered by eviction priority:
// lowest cost-per-byte first, insertion order as the deterministic
// tie-break. Caller holds the lock.
func (c *Cache) victims(inMemory bool) []*entry {
	var out []*entry
	for _, e := range c.entries {
		if e.InMemory == inMemory {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := out[i].costPerByte(), out[j].costPerByte()
		if ci != cj {
			return ci < cj
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// rebalance restores both tier budgets: memory overflow demotes the
// cheapest-to-recompute entries to a worker disk (or evicts them when no
// live worker can take the copy), disk overflow evicts outright. Caller
// holds the lock.
func (c *Cache) rebalance() {
	if c.mem.Over() {
		for _, e := range c.victims(true) {
			if !c.mem.Over() {
				break
			}
			if n := c.diskNodeFor(e.key); n != nil && e.Bytes <= c.dsk.Cap {
				c.mem.Refund(e.Bytes)
				e.Resident = topology.ResidentOn(n, false)
				c.dsk.Hold(e.Bytes)
			} else {
				c.evict(e)
			}
		}
	}
	if c.dsk.Over() {
		for _, e := range c.victims(false) {
			if !c.dsk.Over() {
				break
			}
			c.evict(e)
		}
	}
}

// evict drops an entry to make room. Caller holds the lock.
func (c *Cache) evict(e *entry) {
	c.drop(e)
	c.evictions++
	c.mEvict.Inc()
}

// diskNodeFor picks the disk-tier holder for a key: a deterministic hash
// over the live workers, so identical runs place identical copies.
func (c *Cache) diskNodeFor(key string) *topology.Node {
	var live []*topology.Node
	for _, n := range c.workers {
		if n.Alive() {
			live = append(live, n)
		}
	}
	if len(live) == 0 {
		return nil
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return live[h.Sum64()%uint64(len(live))]
}

// Stats is a snapshot of the cache's counters and residency, the raw
// material of the bench tables and the flight recorder's cache gauges.
type Stats struct {
	Hits, Misses, Invalidations, Evictions, Lost int64
	Entries                                      int
	MemBytes, DiskBytes                          int64
}

// Snapshot reads the cache state. Safe to call from any goroutine.
func (c *Cache) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Invalidations: c.invalidations,
		Evictions: c.evictions, Lost: c.lost,
		Entries: len(c.entries), MemBytes: c.mem.Used(), DiskBytes: c.dsk.Used(),
	}
}

// CheckResidency recomputes both tier budgets from the entries and reports
// the first disagreement, or a tier left over its cap — the memo half of
// the conservation check Runtime.CheckResidency makes.
func (c *Cache) CheckResidency() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var mem, dsk int64
	for _, e := range c.entries {
		if e.InMemory {
			mem += e.Bytes
		} else {
			dsk += e.Bytes
		}
	}
	if c.mem.Used() != mem || c.dsk.Used() != dsk || c.mem.Over() || c.dsk.Over() {
		return fmt.Errorf("memo: tiers account %d/%d B in memory and %d/%d B on disk, the entries sum to %d and %d",
			c.mem.Used(), c.mem.Cap, c.dsk.Used(), c.dsk.Cap, mem, dsk)
	}
	return nil
}
