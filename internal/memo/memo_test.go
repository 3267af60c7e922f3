package memo

import (
	"bytes"
	"errors"
	"testing"

	"mrapid/internal/hdfs"
	"mrapid/internal/metrics"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
)

func testWorkers(t *testing.T, n int) []*topology.Node {
	t.Helper()
	eng := sim.NewEngine()
	c, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: n, Racks: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c.Workers()
}

func parts(sizes ...int) [][]byte {
	out := make([][]byte, len(sizes))
	for i, n := range sizes {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i + 1)
		}
		out[i] = p
	}
	return out
}

func TestLookupCommitInvalidation(t *testing.T) {
	reg := metrics.New()
	c := New(reg, testWorkers(t, 4), Config{MemBytes: 1 << 20, DiskBytes: 1 << 20})

	if _, err := c.Lookup("k", 1); !errors.Is(err, ErrMiss) {
		t.Fatalf("empty cache lookup: %v, want ErrMiss", err)
	}
	c.Commit("k", 1, parts(100, 50), 3.5)
	hit, err := c.Lookup("k", 1)
	if err != nil {
		t.Fatalf("lookup after commit: %v", err)
	}
	if len(hit.Parts) != 2 || len(hit.Parts[0]) != 100 || len(hit.Parts[1]) != 50 {
		t.Fatalf("hit parts wrong: %d pieces", len(hit.Parts))
	}
	if !hit.InMemory || hit.Bytes != 150 || hit.Cost != 3.5 {
		t.Fatalf("hit metadata wrong: %+v", hit)
	}

	// A moved input digest is an invalidation: the stale entry must be
	// dropped (not served, not retained) and the lookup must miss.
	if _, err := c.Lookup("k", 2); !errors.Is(err, ErrMiss) {
		t.Fatalf("stale-digest lookup: %v, want ErrMiss", err)
	}
	if _, err := c.Lookup("k", 1); !errors.Is(err, ErrMiss) {
		t.Fatal("invalidated entry was retained")
	}
	s := c.Snapshot()
	if s.Hits != 1 || s.Misses != 3 || s.Invalidations != 1 || s.Entries != 0 {
		t.Fatalf("counters: %+v", s)
	}
	if reg.Get("memo_hits_total") != 1 || reg.Get("memo_misses_total") != 3 || reg.Get("memo_invalidations_total") != 1 {
		t.Fatal("registry counters disagree with snapshot")
	}
}

// An entry keeps the committed file's bytes, not a copy, so it must still
// serve them after the file is deleted and rewritten under the same name —
// whole, and one block grown by Append.
func TestCommitKeepsBytesAcrossRewrites(t *testing.T) {
	eng := sim.NewEngine()
	cluster, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: 4, Racks: 2})
	if err != nil {
		t.Fatal(err)
	}
	dfs := hdfs.New(eng, cluster, 1<<20, 3, 1)
	node := cluster.Workers()[0]
	c := New(nil, cluster.Workers(), Config{MemBytes: 1 << 20, DiskBytes: 1 << 20})
	want := []byte("word\t3\nother\t1\n")
	if _, err := dfs.PutInstant("/out/part-00000", bytes.Clone(want), node); err != nil {
		t.Fatal(err)
	}
	data, err := dfs.Contents("/out/part-00000")
	if err != nil {
		t.Fatal(err)
	}
	c.Commit("job", 1, [][]byte{data}, 1)
	dfs.Delete("/out/part-00000")
	if _, err := dfs.PutInstant("/out/part-00000", []byte("rewritten\t9\n"), node); err != nil {
		t.Fatal(err)
	}
	if _, err := dfs.Append("/out/part-00000", []byte("appended\t2\n"), node); err != nil {
		t.Fatal(err)
	}
	hit, err := c.Lookup("job", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hit.Parts[0], want) {
		t.Fatalf("hit serves %q after the rewrite, want %q", hit.Parts[0], want)
	}
}

func TestCostAwareEviction(t *testing.T) {
	c := New(nil, testWorkers(t, 4), Config{MemBytes: 250, DiskBytes: 250})

	// Three 100-byte entries with very different recomputation costs. The
	// third commit overflows memory: a pure LRU would demote the oldest
	// ("expensive"), but the cost-aware policy must demote "cheap" — the
	// lowest cost-per-byte.
	c.Commit("expensive", 1, parts(100), 50)
	c.Commit("cheap", 1, parts(100), 0.1)
	c.Commit("mid", 1, parts(100), 10)
	he, _ := c.Lookup("expensive", 1)
	hc, _ := c.Lookup("cheap", 1)
	if he == nil || !he.InMemory {
		t.Fatalf("expensive entry should stay in memory: %+v", he)
	}
	if hc == nil || hc.InMemory || hc.Node == nil {
		t.Fatalf("cheap entry should have been demoted to a worker disk: %+v", hc)
	}

	// Flood the disk tier: the cheapest disk resident is evicted outright.
	c.Commit("flood1", 1, parts(100), 0.2)
	c.Commit("flood2", 1, parts(100), 0.3)
	if _, err := c.Lookup("cheap", 1); !errors.Is(err, ErrMiss) {
		t.Fatalf("cheapest disk entry survived the overflow: %v", err)
	}
	s := c.Snapshot()
	if s.Evictions == 0 {
		t.Fatal("no evictions counted")
	}
	if s.MemBytes > 250 || s.DiskBytes > 250 {
		t.Fatalf("budgets exceeded after rebalance: %+v", s)
	}

	// An output larger than both budgets is simply not cached.
	c.Commit("huge", 1, parts(1000), 100)
	if _, err := c.Lookup("huge", 1); !errors.Is(err, ErrMiss) {
		t.Fatal("over-budget output was cached")
	}
}

// TestEntryLostWithDiskNode is the stale-entry chaos contract: a cached
// output whose backing disk node died (or rebooted — same epoch rule as
// intermediates) must fail the lookup with ErrEntryLost, drop the entry,
// and leave the caller to fall through to normal execution.
func TestEntryLostWithDiskNode(t *testing.T) {
	workers := testWorkers(t, 4)
	c := New(nil, workers, Config{MemBytes: 50, DiskBytes: 1 << 20})

	// 100 bytes > MemBytes, so the entry lands straight on a worker disk.
	c.Commit("k", 7, parts(100), 5)
	hit, err := c.Lookup("k", 7)
	if err != nil {
		t.Fatal(err)
	}
	if hit.InMemory || hit.Node == nil {
		t.Fatalf("entry should be disk-resident: %+v", hit)
	}

	hit.Node.Fail()
	if _, err := c.Lookup("k", 7); !errors.Is(err, ErrEntryLost) {
		t.Fatalf("lookup with dead holder: %v, want ErrEntryLost", err)
	}
	if _, err := c.Lookup("k", 7); !errors.Is(err, ErrMiss) {
		t.Fatal("lost entry was retained")
	}
	s := c.Snapshot()
	if s.Lost != 1 || s.Entries != 0 || s.DiskBytes != 0 {
		t.Fatalf("loss accounting wrong: %+v", s)
	}
	hit.Node.Restart()

	// Reboot between commit and lookup: the node is alive again but its
	// local disk state is a fresh epoch — the entry is still gone.
	c.Commit("k2", 7, parts(100), 5)
	h2, err := c.Lookup("k2", 7)
	if err != nil {
		t.Fatal(err)
	}
	h2.Node.Fail()
	h2.Node.Restart()
	if _, err := c.Lookup("k2", 7); !errors.Is(err, ErrEntryLost) {
		t.Fatalf("lookup after holder reboot: %v, want ErrEntryLost", err)
	}

	// With every worker down, memory overflow cannot demote — entries are
	// evicted rather than placed on dead disks.
	for _, n := range workers {
		n.Fail()
	}
	c.Commit("a", 1, parts(40), 1)
	c.Commit("b", 1, parts(40), 2)
	if _, err := c.Lookup("a", 1); !errors.Is(err, ErrMiss) {
		t.Fatal("entry was demoted onto a dead cluster")
	}
	if ha, _ := c.Lookup("b", 1); ha == nil || !ha.InMemory {
		t.Fatal("surviving entry should be the costlier one, in memory")
	}
}
