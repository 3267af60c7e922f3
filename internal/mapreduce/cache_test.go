package mapreduce

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mrapid/internal/hdfs"
	"mrapid/internal/profiler"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

func TestMapCacheHitReturnsEqualResult(t *testing.T) {
	spec := wcSpec([]string{"/in"}, "/out")
	data := bytes.Repeat([]byte("cache me if you can\n"), 5000)
	c := NewMapCache(1 << 30)

	if _, ok := c.maps.lookup(mustKey(t, spec, "/in", 0, data)); ok {
		t.Fatal("hit on empty cache")
	}
	fresh := ExecMapFile(spec, "", data)
	c.maps.store(mustKey(t, spec, "/in", 0, data), fresh)
	hit, ok := c.maps.lookup(mustKey(t, spec, "/in", 0, data))
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
	c.maps.store(mustKey(t, spec, "/in", 0, data), ExecMapFile(spec, "", data))

	if _, ok := c.maps.lookup(mustKey(t, spec, "/in", 0, other)); ok {
		t.Fatal("hit on different content under the same name")
	}
	if _, ok := c.maps.lookup(mustKey(t, spec, "/in2", 0, data)); ok {
		t.Fatal("hit on different file name")
	}
	if _, ok := c.maps.lookup(mustKey(t, spec, "/in", 100, data)); ok {
		t.Fatal("hit on different offset")
	}
	spec2 := wcSpec([]string{"/in"}, "/out")
	spec2.NumReduces = 3
	if _, ok := c.maps.lookup(mustKey(t, spec2, "/in", 0, data)); ok {
		t.Fatal("hit across partition counts")
	}
	spec3 := wcSpec([]string{"/in"}, "/out")
	spec3.Combine = spec3.Reduce
	if _, ok := c.maps.lookup(mustKey(t, spec3, "/in", 0, data)); ok {
		t.Fatal("hit across combiner settings")
	}
	// Closure-built specs from one site share function symbols; the
	// builder's ClosureSig is what separates them.
	spec4 := wcSpec([]string{"/in"}, "/out")
	spec4.ClosureSig = "filter[amount>200]"
	if _, ok := c.maps.lookup(mustKey(t, spec4, "/in", 0, data)); ok {
		t.Fatal("hit across closure signatures")
	}
	// The program and submission names are not the computation: another
	// JobKey over the same bytes is served.
	spec5 := wcSpec([]string{"/in"}, "/out")
	spec5.Name, spec5.JobKey = "renamed", "other-job"
	if _, ok := c.maps.lookup(mustKey(t, spec5, "/in", 0, data)); !ok {
		t.Fatal("the job's names split one computation")
	}
	// A closure partitioner with no ClosureSig is not reusable at all.
	spec6 := wcSpec([]string{"/in"}, "/out")
	spec6.Partition = func(key []byte, n int) int { return HashPartition(key, n) }
	if tbl, _ := c.key(spec6, "/in", 0, len(data), blockContent(t, data)); tbl != nil {
		t.Fatal("a closure partitioner with no ClosureSig got a cache key")
	}
}

// mustKey is MapCache.key for a spec the test knows is reusable, over the
// digest HDFS hands out with data.
func mustKey(t *testing.T, spec *JobSpec, file string, offset int64, data []byte) cacheKey {
	t.Helper()
	tbl, k := (&MapCache{}).key(spec, file, offset, len(data), blockContent(t, data))
	if tbl == nil {
		t.Fatalf("spec %s is not reusable", spec.Name)
	}
	return k
}

// blockContent stages data as a one-block file in a fresh DFS and returns
// the Content its split read hands out.
func blockContent(t testing.TB, data []byte) *hdfs.Content {
	t.Helper()
	eng := sim.NewEngine()
	cl, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := hdfs.New(eng, cl, 128<<20, 1, 1)
	if _, err := d.PutInstant("/in", data, nil); err != nil {
		t.Fatal(err)
	}
	var content *hdfs.Content
	d.ReadSplit(&hdfs.Split{File: "/in", Length: int64(len(data))}, nil, func(got []byte, c *hdfs.Content, err error) {
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("split read = %d bytes, %v; want the %d staged", len(got), err, len(data))
		}
		content = c
	})
	eng.Run()
	return content
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
	if blockContent(t, a).Digest() == blockContent(t, b).Digest() {
		t.Fatal("same-length different-content blocks share a digest")
	}
	c := NewMapCache(1 << 30)
	c.maps.store(mustKey(t, spec, "/in", 0, a), ExecMapFile(spec, "", a))
	if _, ok := c.maps.lookup(mustKey(t, spec, "/in", 0, b)); ok {
		t.Fatal("cache hit for different content: wrong job output would be returned")
	}
	mb := ExecMapFile(spec, "", b)
	c.maps.store(mustKey(t, spec, "/in", 0, b), mb)
	hit, ok := c.maps.lookup(mustKey(t, spec, "/in", 0, b))
	if !ok {
		t.Fatal("no hit for b after storing b")
	}
	if hit.Records != mb.Records || hit.TotalBytes != mb.TotalBytes {
		t.Fatal("hit returned a different split's result")
	}
}

// A reader gets a private PartBytes slice: callers own the MapOutput a hit
// or a shared body hands them, and a shared slice would let one job's
// mutation corrupt every later hit. shareMap makes that copy for both.
func TestMapCacheLookupCopiesPartBytes(t *testing.T) {
	spec := wcSpec([]string{"/in"}, "/out")
	data := bytes.Repeat([]byte("isolated part bytes\n"), 1000)
	c := NewMapCache(1 << 30)
	k := mustKey(t, spec, "/in", 0, data)
	c.maps.store(k, ExecMapFile(spec, "", data))
	entry := c.maps.entries[k]
	if own := shareMap(entry); &own.PartBytes[0] == &entry.PartBytes[0] || own.PartBytes[0] != entry.PartBytes[0] {
		t.Fatal("shareMap did not give the reader a copy of PartBytes")
	}
	first, _ := c.maps.lookup(k)
	first.PartBytes[0] = -1
	second, ok := c.maps.lookup(k)
	if !ok {
		t.Fatal("no hit")
	}
	if second.PartBytes[0] == -1 || entry.PartBytes[0] == -1 {
		t.Fatal("cached PartBytes shared with a returned MapOutput")
	}
}

// The budget books what an entry really keeps alive — input block, slab
// and the sealed indexes at their capacity — not a guess from the input's line
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
	input := func() []byte {
		var text bytes.Buffer
		for i := 0; text.Len() < 1<<20; i++ {
			fmt.Fprintf(&text, "w%d x%d the of and a%d\n", i%5000, i%37, i%11)
		}
		return bytes.Clone(text.Bytes())
	}
	// The map's scratch outlives the map: grow it before the baseline, so
	// the heap grows by what the entry keeps and nothing else.
	ExecMapFile(spec, "", input())
	before := heap()
	data := input()
	mo := ExecMapFile(spec, "", data)
	pairs, lines := int64(len(mo.Partitions[0])), mo.Records
	c.maps.store(mustKey(t, spec, "/in", 0, data), mo)
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
		c.maps.store(mustKey(t, spec, "/in", int64(i), data), ExecMapFile(spec, "", data))
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
	if _, ok := c.maps.lookup(mustKey(t, spec, "/in", 4, newest)); !ok {
		t.Fatal("newest entry evicted")
	}
	// Evicted entries are gone.
	if _, ok := c.maps.lookup(mustKey(t, spec, "/in", 0, mk('a'))); ok {
		t.Fatal("oldest entry still cached")
	}
}

// Concurrent stress: many goroutines hammer lookup/store over overlapping
// keys. Run under -race this proves the locking is sound; the assertions
// prove no entry is ever corrupted.
func TestMapCacheConcurrentStress(t *testing.T) {
	spec := wcSpec([]string{"/in"}, "/out")
	const splits = 8
	datas := make([][]byte, splits)
	want := make([]*MapOutput, splits)
	for i := range datas {
		datas[i] = bytes.Repeat([]byte(fmt.Sprintf("split %d words here\n", i)), 500+100*i)
		want[i] = ExecMapFile(spec, "", datas[i])
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
				mo, ok := c.maps.lookup(keys[i])
				if !ok {
					mo = ExecMapFile(spec, "", datas[i])
					c.maps.store(keys[i], mo)
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
		mo, ok := c.maps.lookup(keys[i])
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

// Two attempts that miss the MapCache on one split while both compute
// share one body, on lanes and inline alike: the split maps once, the
// second attempt counts a hit, and each gets an output of its own — its own
// holder and PartBytes — over the same pairs. Two reduces over those
// outputs at once share one body the same way.
func TestConcurrentMissesShareOneBody(t *testing.T) {
	for _, lanes := range []int{0, 2} {
		t.Cleanup(UseHostLanes(lanes))
		rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
		cache := NewMapCache(1 << 30)
		rt.MapCache = cache
		nodes := rt.Cluster.Workers()
		rt.DFS.PutInstant("/in", bytes.Repeat([]byte("one body for both attempts\n"), 30_000), nodes[0])
		splits, _ := rt.DFS.Splits([]string{"/in"})
		spec := wcSpec([]string{"/in"}, "/out")
		var outs [2]*MapOutput
		for i := range outs {
			rt.RunMapTask(spec, splits[0], nodes[i], TaskOptions{}, func(mo *MapOutput, _ *profiler.TaskProfile, err error) {
				if err != nil {
					t.Fatal(err)
				}
				outs[i] = mo
			})
		}
		rt.Eng.RunUntil(sim.Time(1 << 40))
		if cache.Misses() != 1 || cache.Hits() != 1 {
			t.Fatalf("%d lanes: %d misses and %d hits, want the second attempt to share the first's body", lanes, cache.Misses(), cache.Hits())
		}
		if outs[0].Node != nodes[0] || outs[1].Node != nodes[1] || &outs[0].PartBytes[0] == &outs[1].PartBytes[0] {
			t.Fatalf("%d lanes: the attempts share one output: held on %s and %s", lanes, outs[0].Node.Name, outs[1].Node.Name)
		}
		if Snapshot(outs[0]) != Snapshot(outs[1]) {
			t.Fatalf("%d lanes: the shared body's outputs differ", lanes)
		}
		done := 0
		for i := range outs {
			rt.RunReduceTask(spec, 0, TaskOptions{}, outs[:], nodes[2+i], func(_ *profiler.TaskProfile, err error) {
				if err != nil {
					t.Fatal(err)
				}
				done++
			})
		}
		rt.Eng.RunUntil(sim.Time(1 << 41))
		if done != 2 || cache.ReduceMisses() != 1 || cache.ReduceHits() != 1 {
			t.Fatalf("%d lanes: %d reduces done, %d misses and %d hits, want 2, 1 and 1", lanes, done, cache.ReduceMisses(), cache.ReduceHits())
		}
	}
}

// CheckResidency reports a map or reduce body still registered as in
// flight: one is while its compute timer runs, and none is once the timer
// fired and the body was resolved.
func TestCheckResidencyReportsBodiesInFlight(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	rt.MapCache = NewMapCache(1 << 30)
	nodes := rt.Cluster.Workers()
	rt.DFS.PutInstant("/in", bytes.Repeat([]byte("left in flight\n"), 20_000), nodes[0])
	splits, _ := rt.DFS.Splits([]string{"/in"})
	spec := wcSpec([]string{"/in"}, "/out")
	check := func(want string) {
		t.Helper()
		for want != "" && len(rt.mapsInFlight)+len(rt.reducesInFlight) == 0 && rt.Eng.Step() {
		}
		err := rt.CheckResidency()
		if want == "" && err != nil || want != "" && (err == nil || !strings.Contains(err.Error(), want)) {
			t.Fatalf("CheckResidency = %v, want %q", err, want)
		}
	}
	var mo *MapOutput
	rt.RunMapTask(spec, splits[0], nodes[0], TaskOptions{}, func(out *MapOutput, _ *profiler.TaskProfile, err error) {
		if err != nil {
			t.Fatal(err)
		}
		mo = out
	})
	check("1 map and 0 reduce bodies still registered")
	rt.Eng.RunUntil(sim.Time(1 << 40))
	check("")
	rt.RunReduceTask(spec, 0, TaskOptions{}, []*MapOutput{mo}, nodes[1], func(_ *profiler.TaskProfile, err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	check("0 map and 1 reduce bodies still registered")
	rt.Eng.RunUntil(sim.Time(1 << 41))
	check("")
}

// TestFingerprintSensitivity: the block digest a MapCache key carries sees
// every byte of the block.
func TestFingerprintSensitivity(t *testing.T) {
	sum := func(data []byte) uint64 { return blockContent(t, data).Digest() }
	a := bytes.Repeat([]byte("x"), 100_000)
	b := append(append([]byte{}, a...), 'y')
	if sum(a) == sum(b) {
		t.Fatal("length change not detected")
	}
	c := append([]byte{}, a...)
	c[50_000] = 'z'
	if sum(a) == sum(c) {
		t.Fatal("middle mutation not detected")
	}
	// Mutations anywhere must be detected now that the full content is
	// hashed (the old sampled windows missed this position).
	d := append([]byte{}, a...)
	d[30_000] = 'z'
	if sum(a) == sum(d) {
		t.Fatal("off-window mutation not detected")
	}
	if sum(a) != sum(append([]byte{}, a...)) {
		t.Fatal("identical content digests differ")
	}
	// Tiny inputs work too.
	if sum([]byte{}) == sum([]byte{1}) {
		t.Fatal("tiny inputs collide")
	}
}
