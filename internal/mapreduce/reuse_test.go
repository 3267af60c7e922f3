package mapreduce

import (
	"bytes"
	"errors"
	"testing"

	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

// Reduce reuse: the MapCache serves a reduce the part file an earlier reduce
// over the same multiset of map outputs produced. These tests pin down when
// it may not: a spec that is not reusable, an attempt that did not succeed,
// and an input whose bytes changed under the same name.

// reuseRun runs WordCount over three staged files (other: the same names
// holding other text) on a fresh runtime attached to cache, and returns the
// part file and the result.
func reuseRun(t *testing.T, cache *MapCache, other bool, arm func(rt *Runtime, spec *JobSpec)) ([]byte, *Result) {
	t.Helper()
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	rt.MapCache = cache
	names, _ := stageWordCountInput(t, rt, 3, 16<<10)
	for i := 0; other && i < len(names); i++ {
		if _, err := rt.DFS.OverwriteInstant(names[i], bytes.Repeat([]byte("other words entirely\n"), 800), rt.Cluster.Workers()[0]); err != nil {
			t.Fatal(err)
		}
	}
	spec := wcSpec(names, "/out")
	if arm != nil {
		arm(rt, spec)
	}
	res := runJob(t, rt, spec, ModeDistributed)
	if res.Err != nil {
		return nil, res
	}
	out, err := rt.DFS.Contents(PartFileName("/out", 0))
	if err != nil {
		t.Fatal(err)
	}
	return out, res
}

func TestReduceReuseServesAnEqualRun(t *testing.T) {
	want, ref := reuseRun(t, nil, false, nil)
	cache := NewMapCache(64 << 20)
	for run := 0; run < 2; run++ {
		got, res := reuseRun(t, cache, false, nil)
		if !bytes.Equal(got, want) || res.Elapsed() != ref.Elapsed() {
			t.Fatalf("run %d: %d bytes done at %.6fs, without the cache %d bytes at %.6fs", run, len(got), res.Elapsed(), len(want), ref.Elapsed())
		}
	}
	if cache.ReduceMisses() != 1 || cache.ReduceHits() != 1 || len(cache.reduces.entries) != 1 {
		t.Fatalf("reduce lookups: %d misses, %d hits, %d entries; want 1, 1, 1", cache.ReduceMisses(), cache.ReduceHits(), len(cache.reduces.entries))
	}
	if cache.Misses() != 3 || cache.Hits() != 3 {
		t.Fatalf("map lookups: %d misses, %d hits; reduce entries must not count as map ones", cache.Misses(), cache.Hits())
	}
}

// A closure reducer with no ClosureSig has no identity: the cache is never
// consulted, for its maps or its reduce.
func TestReduceReuseSkipsASpecWithoutIdentity(t *testing.T) {
	cache := NewMapCache(64 << 20)
	for run := 0; run < 2; run++ {
		reuseRun(t, cache, false, func(_ *Runtime, spec *JobSpec) {
			spec.Reduce = func(k []byte, vs Values, emit Emit) { wcTestReduce(k, vs, emit) }
		})
	}
	if n := cache.Hits() + cache.Misses() + cache.ReduceHits() + cache.ReduceMisses(); n != 0 || cache.Len() != 0 {
		t.Fatalf("%d lookups and %d entries for a spec that is not reusable", n, cache.Len())
	}
}

// A scripted crash never runs the reduce, so it neither looks up nor
// stores; the retry that succeeds stores once.
func TestReduceReuseStoresOnlyASuccess(t *testing.T) {
	want, _ := reuseRun(t, nil, false, nil)
	cache := NewMapCache(64 << 20)
	_, res := reuseRun(t, cache, false, func(rt *Runtime, _ *JobSpec) {
		rt.Faults = new(FaultInjector)
		for a := 0; a < rt.Params.MaxTaskAttempts; a++ {
			rt.Faults.Fail("reduce", 0, a, 0.5)
		}
	})
	if !errors.Is(res.Err, ErrTaskFailed) {
		t.Fatalf("job error %v, want every reduce attempt to fail", res.Err)
	}
	if n := cache.ReduceHits() + cache.ReduceMisses(); n != 0 || len(cache.reduces.entries) != 0 {
		t.Fatalf("crashed reduces made %d lookups and left %d entries", n, len(cache.reduces.entries))
	}
	got, res := reuseRun(t, cache, false, func(rt *Runtime, _ *JobSpec) {
		rt.Faults = new(FaultInjector)
		rt.Faults.Fail("reduce", 0, 0, 0.5)
	})
	if res.Err != nil || !bytes.Equal(got, want) {
		t.Fatalf("retried job: error %v, %d bytes, want %d", res.Err, len(got), len(want))
	}
	if cache.ReduceMisses() != 1 || len(cache.reduces.entries) != 1 {
		t.Fatalf("retried reduce: %d misses, %d entries; want 1, 1", cache.ReduceMisses(), len(cache.reduces.entries))
	}
}

// Same file names, other bytes: the maps miss on content, so the reduce's
// key differs and it misses too.
func TestReduceReuseMissesOnChangedBytes(t *testing.T) {
	cache := NewMapCache(64 << 20)
	first, _ := reuseRun(t, cache, false, nil)
	want, _ := reuseRun(t, nil, true, nil)
	got, _ := reuseRun(t, cache, true, nil)
	if !bytes.Equal(got, want) || bytes.Equal(got, first) {
		t.Fatalf("changed input committed %q, want %q", clipTo(got, 80), clipTo(want, 80))
	}
	if cache.ReduceHits() != 0 || cache.ReduceMisses() != 2 {
		t.Fatalf("reduce lookups: %d hits, %d misses; want 0, 2", cache.ReduceHits(), cache.ReduceMisses())
	}
}

func clipTo(b []byte, n int) []byte { return b[:min(len(b), n)] }

// A reduce's key is the multiset of its inputs: any order of the same
// outputs gives one key, while another multiplicity, partition or
// computation gives another.
func TestReduceKeyIsTheMultisetOfInputs(t *testing.T) {
	spec := wcSpec([]string{"/in"}, "/out")
	c := NewMapCache(1 << 20)
	out := func(file string, data string) *MapOutput {
		k := mustKey(t, spec, file, 0, []byte(data))
		return &MapOutput{cached: &k}
	}
	a, b, a2 := out("/in/a", "x y\n"), out("/in/b", "y z\n"), out("/in/a", "x y\n")
	key := func(spec *JobSpec, part int, outs ...*MapOutput) reduceKey {
		tbl, k := c.reduceKeyFor(spec, part, outs)
		if tbl == nil {
			t.Fatal("outputs that came through the cache got no reduce key")
		}
		return k
	}
	aab := key(spec, 0, a, a2, b)
	if key(spec, 0, b, a, a2) != aab || key(spec, 0, a2, b, a) != aab {
		t.Fatal("the order of the inputs changed the reduce key")
	}
	if key(spec, 0, a, b, b) == aab || key(spec, 0, a, b) == aab {
		t.Fatal("another multiplicity of the same inputs shares the reduce key")
	}
	if key(spec, 1, a, a2, b) == aab {
		t.Fatal("two partitions share a reduce key")
	}
	other := wcSpec([]string{"/in"}, "/out")
	other.ClosureSig = "other computation"
	if key(other, 0, a, a2, b) == aab {
		t.Fatal("two computations share a reduce key")
	}
	if tbl, _ := c.reduceKeyFor(spec, 0, []*MapOutput{a, {}}); tbl != nil {
		t.Fatal("an output that did not come through the cache got a reduce key")
	}
}
