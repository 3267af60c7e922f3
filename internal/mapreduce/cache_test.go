package mapreduce

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mrapid/internal/profiler"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

func TestMapCacheHitReturnsEqualResult(t *testing.T) {
	spec := wcSpec([]string{"/in"}, "/out")
	data := bytes.Repeat([]byte("cache me if you can\n"), 5000)
	c := NewMapCache(1 << 30)

	if _, ok := c.lookup(mustKey(t, spec, "/in", 0, data)); ok {
		t.Fatal("hit on empty cache")
	}
	fresh := ExecMap(spec, data)
	c.store(mustKey(t, spec, "/in", 0, data), fresh)
	hit, ok := c.lookup(mustKey(t, spec, "/in", 0, data))
	if !ok {
		t.Fatal("no hit after store")
	}
	if hit.TotalBytes != fresh.TotalBytes || hit.Records != fresh.Records {
		t.Fatalf("cached aggregates differ: %d/%d vs %d/%d",
			hit.TotalBytes, hit.Records, fresh.TotalBytes, fresh.Records)
	}
	if len(hit.Partitions[0]) != len(fresh.Partitions[0]) {
		t.Fatal("cached partitions differ")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("counters = %d/%d", c.Hits(), c.Misses())
	}
}

func TestMapCacheKeyDiscriminates(t *testing.T) {
	spec := wcSpec([]string{"/in"}, "/out")
	data := bytes.Repeat([]byte("same name different content\n"), 100)
	other := bytes.Repeat([]byte("SAME name different CONTENT!\n"), 100)
	c := NewMapCache(1 << 30)
	c.store(mustKey(t, spec, "/in", 0, data), ExecMap(spec, data))

	if _, ok := c.lookup(mustKey(t, spec, "/in", 0, other)); ok {
		t.Fatal("hit on different content under the same name")
	}
	if _, ok := c.lookup(mustKey(t, spec, "/in2", 0, data)); ok {
		t.Fatal("hit on different file name")
	}
	if _, ok := c.lookup(mustKey(t, spec, "/in", 100, data)); ok {
		t.Fatal("hit on different offset")
	}
	spec2 := wcSpec([]string{"/in"}, "/out")
	spec2.NumReduces = 3
	if _, ok := c.lookup(mustKey(t, spec2, "/in", 0, data)); ok {
		t.Fatal("hit across partition counts")
	}
	spec3 := wcSpec([]string{"/in"}, "/out")
	spec3.Combine = spec3.Reduce
	if _, ok := c.lookup(mustKey(t, spec3, "/in", 0, data)); ok {
		t.Fatal("hit across combiner settings")
	}
	// Closure-built specs from one site share function symbols; the
	// builder's ClosureSig is what separates them.
	spec4 := wcSpec([]string{"/in"}, "/out")
	spec4.ClosureSig = "filter[amount>200]"
	if _, ok := c.lookup(mustKey(t, spec4, "/in", 0, data)); ok {
		t.Fatal("hit across closure signatures")
	}
	// The program and submission names are not the computation: another
	// JobKey over the same bytes is served.
	spec5 := wcSpec([]string{"/in"}, "/out")
	spec5.Name, spec5.JobKey = "renamed", "other-job"
	if _, ok := c.lookup(mustKey(t, spec5, "/in", 0, data)); !ok {
		t.Fatal("the job's names split one computation")
	}
	// A closure partitioner with no ClosureSig is not reusable at all.
	spec6 := wcSpec([]string{"/in"}, "/out")
	spec6.Partition = func(key []byte, n int) int { return HashPartition(key, n) }
	if _, ok := c.key(spec6, "/in", 0, data); ok {
		t.Fatal("a closure partitioner with no ClosureSig got a cache key")
	}
}

// mustKey is MapCache.key for a spec the test knows is reusable.
func mustKey(t *testing.T, spec *JobSpec, file string, offset int64, data []byte) cacheKey {
	t.Helper()
	k, ok := (&MapCache{}).key(spec, file, offset, data)
	if !ok {
		t.Fatalf("spec %s is not reusable", spec.Name)
	}
	return k
}

// Regression: the old fingerprint sampled three 4 KiB windows, so two
// same-length splits differing only outside the windows collided and a
// cache hit silently returned the wrong job's output.
func TestMapCacheSameLengthDifferentContentNoCollision(t *testing.T) {
	spec := wcSpec([]string{"/in"}, "/out")
	a := bytes.Repeat([]byte("the quick brown fox jumps over the dog\n"), 8000) // ~300 KB
	b := append([]byte(nil), a...)
	// Mutate a region far from the start, middle, and end windows the old
	// fingerprint sampled.
	copy(b[80_000:], []byte("CORRUPTED RECORD"))
	if len(a) != len(b) {
		t.Fatal("test needs equal lengths")
	}
	if fingerprint(a) == fingerprint(b) {
		t.Fatal("same-length different-content splits share a fingerprint")
	}
	c := NewMapCache(1 << 30)
	c.store(mustKey(t, spec, "/in", 0, a), ExecMap(spec, a))
	if _, ok := c.lookup(mustKey(t, spec, "/in", 0, b)); ok {
		t.Fatal("cache hit for different content: wrong job output would be returned")
	}
	mb := ExecMap(spec, b)
	c.store(mustKey(t, spec, "/in", 0, b), mb)
	hit, ok := c.lookup(mustKey(t, spec, "/in", 0, b))
	if !ok {
		t.Fatal("no hit for b after storing b")
	}
	if hit.Records != mb.Records || hit.TotalBytes != mb.TotalBytes {
		t.Fatal("hit returned a different split's result")
	}
}

// lookup must hand out a private PartBytes slice: callers own the returned
// MapOutput, and a shared slice would let one job's mutation corrupt every
// later hit.
func TestMapCacheLookupCopiesPartBytes(t *testing.T) {
	spec := wcSpec([]string{"/in"}, "/out")
	data := bytes.Repeat([]byte("isolated part bytes\n"), 1000)
	c := NewMapCache(1 << 30)
	c.store(mustKey(t, spec, "/in", 0, data), ExecMap(spec, data))
	first, _ := c.lookup(mustKey(t, spec, "/in", 0, data))
	first.PartBytes[0] = -1
	second, ok := c.lookup(mustKey(t, spec, "/in", 0, data))
	if !ok {
		t.Fatal("no hit")
	}
	if second.PartBytes[0] == -1 {
		t.Fatal("cached PartBytes shared with a returned MapOutput")
	}
}

// The budget books what an entry really keeps alive — input block, slab
// and the indexes at their capacity — not a guess from the input's line
// count: a WordCount split emits an order of magnitude more pairs than it
// has lines.
func TestMapCacheBooksRealFootprint(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	spec := wcSpec([]string{"/in"}, "/out")
	c := NewMapCache(1 << 30)
	before := heap()
	var text bytes.Buffer
	for i := 0; text.Len() < 1<<20; i++ {
		fmt.Fprintf(&text, "w%d x%d the of and a%d\n", i%5000, i%37, i%11)
	}
	data := bytes.Clone(text.Bytes())
	text = bytes.Buffer{}
	mo := ExecMap(spec, data)
	pairs, lines := int64(len(mo.Partitions[0])), mo.Records
	c.store(mustKey(t, spec, "/in", 0, data), mo)
	data, mo = nil, nil
	measured := heap() - before
	if used := c.Used(); used < measured*9/10 || used > measured*11/10 {
		t.Fatalf("Used() = %d bytes, the entry holds %d (%d pairs from %d lines)", used, measured, pairs, lines)
	}
	runtime.KeepAlive(c)
}

func TestMapCacheEvictsFIFO(t *testing.T) {
	spec := wcSpec([]string{"/in"}, "/out")
	mk := func(tag byte) []byte {
		return bytes.Repeat([]byte{tag, ' ', tag, '\n'}, 30_000) // ~120 KB
	}
	c := NewMapCache(200 << 10) // under one entry's retained bytes
	for i := 0; i < 5; i++ {
		data := mk(byte('a' + i))
		c.store(mustKey(t, spec, "/in", int64(i), data), ExecMap(spec, data))
	}
	// Each entry retains ~227 KB: the 120 KB input, an index presized for
	// the input (3 814 Recs of 24 bytes) that holds one counted word, and
	// its counts at the index's capacity. That is over the budget, so the
	// cache evicts down to the single most recent entry — it always keeps
	// at least one so oversized splits still memoize.
	if c.Len() != 1 {
		t.Fatalf("eviction kept %d entries (%d bytes), want 1", c.Len(), c.Used())
	}
	// Newest entry survives.
	newest := mk(byte('a' + 4))
	if _, ok := c.lookup(mustKey(t, spec, "/in", 4, newest)); !ok {
		t.Fatal("newest entry evicted")
	}
	// Evicted entries are gone.
	if _, ok := c.lookup(mustKey(t, spec, "/in", 0, mk('a'))); ok {
		t.Fatal("oldest entry still cached")
	}
}

// Concurrent stress: many goroutines hammer lookup/store over overlapping
// keys. Run under -race this proves the sharded locking is sound; the
// assertions prove no entry is ever corrupted.
func TestMapCacheConcurrentStress(t *testing.T) {
	spec := wcSpec([]string{"/in"}, "/out")
	const splits = 8
	datas := make([][]byte, splits)
	want := make([]*MapOutput, splits)
	for i := range datas {
		datas[i] = bytes.Repeat([]byte(fmt.Sprintf("split %d words here\n", i)), 500+100*i)
		want[i] = ExecMap(spec, datas[i])
	}
	keys := make([]cacheKey, splits)
	for i := range keys {
		keys[i] = mustKey(t, spec, "/in", int64(i), datas[i])
	}
	c := NewMapCache(1 << 30)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				i := (g + iter) % splits
				mo, ok := c.lookup(keys[i])
				if !ok {
					mo = ExecMap(spec, datas[i])
					c.store(keys[i], mo)
				}
				if mo.Records != want[i].Records || mo.TotalBytes != want[i].TotalBytes {
					t.Errorf("split %d: got %d/%d records/bytes, want %d/%d",
						i, mo.Records, mo.TotalBytes, want[i].Records, want[i].TotalBytes)
					return
				}
				mo.PartBytes[0] = -7 // must never leak into the cache
			}
		}(g)
	}
	wg.Wait()
	for i := range datas {
		mo, ok := c.lookup(keys[i])
		if !ok {
			t.Fatalf("split %d missing after stress", i)
		}
		if mo.PartBytes[0] != want[i].PartBytes[0] {
			t.Fatalf("split %d PartBytes corrupted: %d", i, mo.PartBytes[0])
		}
	}
	if c.Hits()+c.Misses() != 16*50+int64(splits) {
		t.Fatalf("counter total = %d, want %d", c.Hits()+c.Misses(), 16*50+splits)
	}
}

func TestMapCacheNeverChangesSimulatedTiming(t *testing.T) {
	run := func(cache *MapCache) (sim.Time, int64) {
		eng := sim.NewEngine()
		cluster, _ := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: 4, Racks: 2})
		rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
		rt.MapCache = cache
		node := rt.Cluster.Workers()[0]
		data := bytes.Repeat([]byte("timing must not depend on the cache\n"), 20_000)
		rt.DFS.PutInstant("/in", data, node)
		splits, _ := rt.DFS.Splits([]string{"/in"})
		spec := wcSpec([]string{"/in"}, "/out")
		var end sim.Time
		var out int64
		rt.RunMapTask(spec, splits[0], node, TaskOptions{},
			func(mo *MapOutput, tp *profiler.TaskProfile, err error) {
				if err != nil {
					t.Fatal(err)
				}
				end = rt.Eng.Now()
				out = mo.TotalBytes
			})
		rt.Eng.RunUntil(sim.Time(1 << 40))
		_ = cluster
		return end, out
	}
	cache := NewMapCache(1 << 30)
	t1, o1 := run(nil)   // no cache
	t2, o2 := run(cache) // miss
	t3, o3 := run(cache) // hit
	if t1 != t2 || t2 != t3 {
		t.Fatalf("virtual completion differs: %v / %v / %v", t1, t2, t3)
	}
	if o1 != o2 || o2 != o3 {
		t.Fatalf("outputs differ: %d / %d / %d", o1, o2, o3)
	}
	if cache.Hits() != 1 {
		t.Fatalf("Hits = %d", cache.Hits())
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	a := bytes.Repeat([]byte("x"), 100_000)
	b := append(append([]byte{}, a...), 'y')
	if fingerprint(a) == fingerprint(b) {
		t.Fatal("length change not detected")
	}
	c := append([]byte{}, a...)
	c[50_000] = 'z'
	if fingerprint(a) == fingerprint(c) {
		t.Fatal("middle mutation not detected")
	}
	// Mutations anywhere must be detected now that the full content is
	// hashed (the old sampled windows missed this position).
	d := append([]byte{}, a...)
	d[30_000] = 'z'
	if fingerprint(a) == fingerprint(d) {
		t.Fatal("off-window mutation not detected")
	}
	if fingerprint(a) != fingerprint(append([]byte{}, a...)) {
		t.Fatal("identical content fingerprints differ")
	}
	// Tiny inputs work too.
	if fingerprint([]byte{}) == fingerprint([]byte{1}) {
		t.Fatal("tiny inputs collide")
	}
}
