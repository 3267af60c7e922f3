package mapreduce

import (
	"bytes"
	"testing"

	"mrapid/internal/hdfs"
	"mrapid/internal/profiler"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

// runOneMap stages data as /in, runs one map task over its split with the
// given cache, calling between after the split is read and before the map
// runs, and returns the output.
func runOneMap(t *testing.T, cache *MapCache, data []byte, between func(rt *Runtime)) (*Runtime, *hdfs.Split, *MapOutput) {
	t.Helper()
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	rt.MapCache = cache
	node := rt.Cluster.Workers()[0]
	if _, err := rt.DFS.PutInstant("/in", data, node); err != nil {
		t.Fatal(err)
	}
	splits, err := rt.DFS.Splits([]string{"/in"})
	if err != nil || len(splits) != 1 {
		t.Fatalf("splits = %v, %v; want one", splits, err)
	}
	var out *MapOutput
	rt.RunMapTask(wcSpec([]string{"/in"}, "/out"), splits[0], node, TaskOptions{},
		func(mo *MapOutput, _ *profiler.TaskProfile, err error) {
			if err != nil {
				t.Fatal(err)
			}
			out = mo
		})
	// RunMapTask issues the read before it returns: the bytes are taken.
	if between != nil {
		between(rt)
	}
	rt.Eng.RunUntil(sim.Time(1 << 40))
	if out == nil {
		t.Fatal("the map task never finished")
	}
	return rt, splits[0], out
}

// readSplit reads split through the runtime and returns what it hands out.
func readSplit(t *testing.T, rt *Runtime, split *hdfs.Split) ([]byte, *hdfs.Content) {
	t.Helper()
	var data []byte
	var content *hdfs.Content
	rt.ReadSplit(split, rt.Cluster.Workers()[1], func(got []byte, c *hdfs.Content, err error) {
		if err != nil {
			t.Fatal(err)
		}
		data, content = got, c
	})
	rt.Eng.RunUntil(sim.Time(1 << 41))
	return data, content
}

// digestOf is the digest of data as HDFS computes it.
func digestOf(data []byte) uint64 { return (&hdfs.Content{Data: data}).Digest() }

// An Append between a split's read and its map replaces the block's bytes
// and bumps its generation; the map still runs over the bytes it read, and
// its cache key must carry their digest — not the grown block's, which
// would file this output under bytes it never saw.
func TestMapKeyCarriesTheDigestOfTheMappedBytes(t *testing.T) {
	data := bytes.Repeat([]byte("read before the append\n"), 500)
	tail := []byte("appended after the read\n")
	cache := NewMapCache(1 << 30)
	rt, split, mo := runOneMap(t, cache, data, func(rt *Runtime) {
		if _, err := rt.DFS.Append("/in", tail, nil); err != nil {
			t.Fatal(err)
		}
	})
	if mo.Records != 500 {
		t.Fatalf("the map saw %d records, want the 500 read before the append", mo.Records)
	}
	if mo.cached == nil {
		t.Fatal("the output did not come through the cache")
	}
	if got, want := mo.cached.content, digestOf(data); got != want {
		t.Fatalf("key digest %016x, want %016x (the bytes mapped)", got, want)
	}
	grown := append(bytes.Clone(data), tail...)
	if mo.cached.content == digestOf(grown) {
		t.Fatal("the key carries the grown block's digest")
	}

	// The stale split still reads the bytes it names and gets their digest;
	// the block's own digest, listed anew, is the grown bytes'.
	if got, c := readSplit(t, rt, split); !bytes.Equal(got, data) || c.Digest() != mo.cached.content {
		t.Fatalf("stale split read %d bytes with digest %016x", len(got), c.Digest())
	}
	splits, _ := rt.DFS.Splits([]string{"/in"})
	if got, c := readSplit(t, rt, splits[0]); !bytes.Equal(got, grown) || c.Digest() != digestOf(grown) {
		t.Fatalf("grown split read %d bytes with digest %016x", len(got), c.Digest())
	}
}

// The digest is computed for a cache key only: a run with no MapCache
// reads every split with its digest in hand and never hashes a byte.
func TestNoMapCacheComputesNoDigest(t *testing.T) {
	data := bytes.Repeat([]byte("nobody asks for this digest\n"), 500)
	for _, tc := range []struct {
		name  string
		cache *MapCache
	}{{"no cache", nil}, {"cache", NewMapCache(1 << 30)}} {
		rt, split, _ := runOneMap(t, tc.cache, data, nil)
		// A read of the same generation hands out the block's one Content.
		if _, c := readSplit(t, rt, split); c.Digested() != (tc.cache != nil) {
			t.Errorf("%s: block digest computed = %t", tc.name, c.Digested())
		}
	}
}

// FuzzMapCacheKey: two filesystems hold fuzzed bytes under one file name;
// the keys their split reads produce are equal exactly when the bytes are.
func FuzzMapCacheKey(f *testing.F) {
	for _, seed := range [][2]string{
		{"", ""}, {"", "\x00"}, {"a", "a"}, {"a", "b"}, {"ab", "ba"},
		{"the quick brown fox\n", "the quick brown fox\n"},
		{"the quick brown fox\n", "the quick brown fix\n"},
		{"same", "same\x00"},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	spec := wcSpec([]string{"/in"}, "/out")
	c := NewMapCache(1 << 20)
	key := func(t *testing.T, data []byte) cacheKey {
		eng := sim.NewEngine()
		cl, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		d := hdfs.New(eng, cl, 1<<20, 1, 1)
		if _, err := d.PutInstant("/in", data, nil); err != nil {
			t.Fatal(err)
		}
		var k cacheKey
		d.ReadSplit(&hdfs.Split{File: "/in", Length: int64(len(data))}, nil, func(got []byte, content *hdfs.Content, err error) {
			if err != nil {
				t.Fatal(err)
			}
			var tbl *table[cacheKey, *MapOutput]
			if tbl, k = c.key(spec, "/in", 0, len(got), content); tbl == nil {
				t.Fatal("WordCount is not reusable")
			}
		})
		eng.Run()
		return k
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) > 1<<20 || len(b) > 1<<20 {
			t.Skip("larger than one block")
		}
		if ka, kb := key(t, a), key(t, b); (ka == kb) != bytes.Equal(a, b) {
			t.Fatalf("keys equal = %t for bytes equal = %t (%q vs %q)", ka == kb, bytes.Equal(a, b), a, b)
		}
	})
}
