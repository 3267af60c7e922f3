package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"mrapid/internal/mapreduce"
	"mrapid/internal/memo"
	"mrapid/internal/metrics"
	"mrapid/internal/profiler"
	"mrapid/internal/topology"
	"mrapid/internal/workloads"
)

// containersLaunched sums lifetime container launches across all nodes.
func containersLaunched(reg *metrics.Registry) int64 {
	var n int64
	for name, v := range reg.Counters() {
		if strings.HasPrefix(name, "yarn_containers_launched_total") {
			n += v
		}
	}
	return n
}

func memoRuntime(t *testing.T) (*mapreduce.Runtime, *metrics.Registry) {
	t.Helper()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	reg := metrics.New()
	rt.Reg = reg
	rt.RM.Reg = reg
	return rt, reg
}

func submitWC(t *testing.T, f *Framework, spec *mapreduce.JobSpec) *mapreduce.Result {
	t.Helper()
	var res *mapreduce.Result
	run := *spec
	f.RT.Eng.After(0, func() {
		f.Submit(ModeDPlus, &run, func(r *mapreduce.Result) { res = r })
	})
	f.RT.Eng.RunUntil(f.RT.Eng.Now().Add(10 * time.Minute))
	if res == nil {
		t.Fatal("job did not finish")
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res
}

// TestMemoHitSkipsExecution is the tentpole's acceptance contract at the
// framework level: a repeat submission of an identical job over unchanged
// inputs launches zero containers, returns byte-identical output, and
// reports ModeMemo under the "memo" transport; mutating an input block
// invalidates the entry and forces full re-execution.
func TestMemoHitSkipsExecution(t *testing.T) {
	t.Parallel()
	rt, reg := memoRuntime(t)
	f := startFramework(t, rt, 2)
	f.Memo = memo.New(reg, rt.Cluster.Workers(), memo.Config{})

	input := []byte("the quick brown fox the lazy dog the end\n")
	if _, err := rt.DFS.PutInstant("/in/m-0", input, nil); err != nil {
		t.Fatal(err)
	}
	spec := workloads.WordCountSpec("memo-wc", []string{"/in/m-0"}, "/out1", false)
	if _, ok := spec.Identity(); !ok {
		t.Fatal("wordcount spec should be reusable (named transforms)")
	}

	res1 := submitWC(t, f, spec)
	if res1.Mode != string(ModeDPlus) {
		t.Fatalf("first run mode = %q, want dplus", res1.Mode)
	}
	fresh, err := rt.DFS.Contents(mapreduce.PartFileName("/out1", 0))
	if err != nil {
		t.Fatal(err)
	}
	launched := containersLaunched(reg)
	if launched == 0 {
		t.Fatal("first run launched no containers?")
	}

	// Repeat over unchanged inputs, different output path (the output
	// location is not part of the computation).
	spec2 := workloads.WordCountSpec("memo-wc#2", []string{"/in/m-0"}, "/out2", false)
	res2 := submitWC(t, f, spec2)
	if res2.Mode != string(ModeMemo) {
		t.Fatalf("repeat run mode = %q, want memo", res2.Mode)
	}
	if got := containersLaunched(reg); got != launched {
		t.Fatalf("memo hit launched %d containers", got-launched)
	}
	served, err := rt.DFS.Contents(mapreduce.PartFileName("/out2", 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, fresh) {
		t.Fatal("memo-served output is not byte-identical to the fresh run")
	}
	if reg.Get(metrics.With("mapreduce_shuffle_fetch_total", "kind", "memo", "transport", "memo")) == 0 {
		t.Fatal("memo materialization not observed under the memo transport")
	}
	if reg.Get("memo_hits_total") != 1 || reg.Get("memo_misses_total") != 1 {
		t.Fatalf("hit/miss counters: %d/%d, want 1/1",
			reg.Get("memo_hits_total"), reg.Get("memo_misses_total"))
	}

	// Mutate one input block: the write generation moves, the entry is
	// invalidated, and the resubmission executes in full.
	if _, err := rt.DFS.OverwriteInstant("/in/m-0", []byte("entirely new words now\n"), nil); err != nil {
		t.Fatal(err)
	}
	spec3 := workloads.WordCountSpec("memo-wc#3", []string{"/in/m-0"}, "/out3", false)
	res3 := submitWC(t, f, spec3)
	if res3.Mode != string(ModeDPlus) {
		t.Fatalf("post-mutation run mode = %q, want dplus (full re-execution)", res3.Mode)
	}
	if reg.Get("memo_invalidations_total") != 1 {
		t.Fatalf("invalidations = %d, want 1", reg.Get("memo_invalidations_total"))
	}
	if got := containersLaunched(reg); got == launched {
		t.Fatal("invalidated resubmission launched no containers")
	}

	// The re-run recommitted under the new digest: the next repeat hits.
	spec4 := workloads.WordCountSpec("memo-wc#4", []string{"/in/m-0"}, "/out4", false)
	if res4 := submitWC(t, f, spec4); res4.Mode != string(ModeMemo) {
		t.Fatalf("post-recommit repeat mode = %q, want memo", res4.Mode)
	}
	served4, _ := rt.DFS.Contents(mapreduce.PartFileName("/out4", 0))
	fresh3, _ := rt.DFS.Contents(mapreduce.PartFileName("/out3", 0))
	if !bytes.Equal(served4, fresh3) {
		t.Fatal("post-invalidation hit served stale bytes")
	}
}

// TestMemoSpeculativeHit pins the speculative workflow's step 0: a cache
// hit ends the run before the history consult, with ModeMemo as the winner
// and no outcome recorded (a served result must not calibrate the
// estimator).
func TestMemoSpeculativeHit(t *testing.T) {
	t.Parallel()
	rt, reg := memoRuntime(t)
	f := startFramework(t, rt, 2)
	f.Memo = memo.New(reg, rt.Cluster.Workers(), memo.Config{})

	if _, err := rt.DFS.PutInstant("/in/s-0", []byte("alpha beta alpha gamma\n"), nil); err != nil {
		t.Fatal(err)
	}
	run := func(name, out string) *mapreduce.Result {
		spec := workloads.WordCountSpec(name, []string{"/in/s-0"}, out, false)
		spec.JobKey = name // keep exact-match history out of the picture
		var res *mapreduce.Result
		rt.Eng.After(0, func() {
			f.Submit(ModeSpeculative, spec, func(r *mapreduce.Result) { res = r })
		})
		rt.Eng.RunUntil(rt.Eng.Now().Add(10 * time.Minute))
		if res == nil {
			t.Fatalf("%s did not finish", name)
		}
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res
	}

	first := run("swc", "/outA")
	if ModeKind(first.Mode) == ModeMemo {
		t.Fatal("first speculative run cannot be a memo hit")
	}
	entries := len(f.History.Entries())

	second := run("swc2", "/outB")
	if ModeKind(second.Mode) != ModeMemo || by(second) == profiler.ByHistory {
		t.Fatalf("repeat = %+v, want a pure memo win", second)
	}
	if len(f.History.Entries()) != entries {
		t.Fatal("memo hit leaked into the execution-record history")
	}
	a, _ := rt.DFS.Contents(mapreduce.PartFileName("/outA", 0))
	b, _ := rt.DFS.Contents(mapreduce.PartFileName("/outB", 0))
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatal("speculative memo hit output differs from the raced run")
	}
}

// TestMemoDiskLossFallsThrough is the stale-entry chaos path end to end: a
// disk-tier entry whose holder died fails the lookup and the submission
// falls through to full execution, then recommits.
func TestMemoDiskLossFallsThrough(t *testing.T) {
	t.Parallel()
	rt, reg := memoRuntime(t)
	f := startFramework(t, rt, 2)
	// A 1-byte memory tier forces every entry straight to a worker disk.
	f.Memo = memo.New(reg, rt.Cluster.Workers(), memo.Config{MemBytes: 1})

	if _, err := rt.DFS.PutInstant("/in/d-0", []byte("one two two three three three\n"), nil); err != nil {
		t.Fatal(err)
	}
	spec := workloads.WordCountSpec("dwc", []string{"/in/d-0"}, "/outD1", false)
	submitWC(t, f, spec)

	// Find the holder the way the materializer would, then kill it. The
	// extra lookup counts one hit; the assertions below use lost/misses.
	key, digest, ok := f.memoIdentity(spec)
	if !ok {
		t.Fatal("spec not memoizable")
	}
	hit, err := f.Memo.Lookup(key, digest)
	if err != nil {
		t.Fatal(err)
	}
	if hit.InMemory || hit.Node == nil {
		t.Fatal("entry should be disk-resident under the 1-byte memory tier")
	}
	holder := hit.Node
	rt.Eng.After(0, func() { holder.Fail() })
	rt.Eng.RunUntil(rt.Eng.Now().Add(30 * time.Second))

	spec2 := workloads.WordCountSpec("dwc#2", []string{"/in/d-0"}, "/outD2", false)
	res := submitWC(t, f, spec2)
	if res.Mode == string(ModeMemo) {
		t.Fatal("lookup against a dead holder served a memo hit")
	}
	if reg.Get("memo_lost_total") != 1 {
		t.Fatalf("lost = %d, want 1", reg.Get("memo_lost_total"))
	}
	a, _ := rt.DFS.Contents(mapreduce.PartFileName("/outD1", 0))
	b, _ := rt.DFS.Contents(mapreduce.PartFileName("/outD2", 0))
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatal("fall-through re-execution produced different bytes")
	}
}

// TestMemoDiskHolderLostUnderRead is the memo entry's leg of the one read
// protocol (internal/mapreduce TestLostHolderReadProtocol has the other
// two carriers): the lookup hits, then the disk-tier holder dies — inside
// the proxy round-trip (a refused read) or while its disk is serving the
// bytes (a dropped one). Either way the hit is abandoned, the entry is
// dropped and counted lost, and the submission executes for real. Before
// the read went through the protocol it installed bytes off the dead disk.
func TestMemoDiskHolderLostUnderRead(t *testing.T) {
	t.Parallel()
	for _, window := range []string{"round-trip", "disk read"} {
		rt, reg := memoRuntime(t)
		f := startFramework(t, rt, 2)
		f.Memo = memo.New(reg, rt.Cluster.Workers(), memo.Config{MemBytes: 1})
		if _, err := rt.DFS.PutInstant("/in/u-0", []byte("one two two three three three\n"), nil); err != nil {
			t.Fatal(err)
		}
		submitWC(t, f, workloads.WordCountSpec("uwc", []string{"/in/u-0"}, "/outU1", false))
		spec := workloads.WordCountSpec("uwc#2", []string{"/in/u-0"}, "/outU2", false)
		key, digest, _ := f.memoIdentity(spec)
		hit, err := f.Memo.Lookup(key, digest)
		if err != nil || hit.InMemory {
			t.Fatalf("%s: want a disk-tier entry, got %+v (%v)", window, hit, err)
		}
		crashAt := rt.Params.RPCLatency / 2
		if window == "disk read" {
			crashAt = rt.Params.RPCLatency + hit.Node.Disk.TransferTime(hit.Bytes)/2
		}
		rt.Eng.After(crashAt, hit.Node.Fail)
		res := submitWC(t, f, spec)
		if res.Mode == string(ModeMemo) {
			t.Fatalf("%s: a hit whose holder died under the read was served", window)
		}
		if lost, entries := reg.Get("memo_lost_total"), f.Memo.Snapshot().Entries; lost != 1 || entries != 1 {
			t.Fatalf("%s: lost = %d, entries = %d; want the dead entry dropped once and the fresh result committed", window, lost, entries)
		}
		a, _ := rt.DFS.Contents(mapreduce.PartFileName("/outU1", 0))
		b, _ := rt.DFS.Contents(mapreduce.PartFileName("/outU2", 0))
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Fatalf("%s: fall-through execution produced different bytes", window)
		}
	}
}

// wordFilter counts the words containing sub. Its Split is used as a
// method value, whose symbol ("…wordFilter.Split-fm") every receiver shares.
type wordFilter struct{ sub string }

func (w wordFilter) Split(string, *mapreduce.Lane) (mapreduce.MapFunc, func(mapreduce.CountedEmit)) {
	return func(_, line []byte, emit mapreduce.Emit) {
		for _, word := range bytes.Fields(line) {
			if bytes.Contains(word, []byte(w.sub)) {
				emit(word, []byte("1"))
			}
		}
	}, nil
}

// A method-value transform captures its receiver, and the spec names none of
// it: neither result cache may serve it. Two filters of one program over one
// input — same JobKey, same symbols — each get their own output, and neither
// cache is consulted.
func TestMethodValueTransformIsNeverServedFromACache(t *testing.T) {
	t.Parallel()
	rt, reg := memoRuntime(t)
	f := startFramework(t, rt, 2)
	f.Memo = memo.New(reg, rt.Cluster.Workers(), memo.Config{})
	rt.MapCache = mapreduce.NewMapCache(1 << 26)
	names, input := stageInput(t, rt, 2, 64<<10)

	for i, sub := range []string{"or", "e"} {
		out := fmt.Sprintf("/out/filter-%d", i)
		spec := workloads.WordCountSpec("filter-"+sub, names, out, false)
		spec.JobKey = "word-filter"
		spec.MapFor = wordFilter{sub}.Split
		submitWC(t, f, spec)
		var kept [][]byte
		for _, w := range bytes.Fields(input) {
			if bytes.Contains(w, []byte(sub)) {
				kept = append(kept, w)
			}
		}
		verifyWC(t, rt, out, bytes.Join(kept, []byte(" ")))
	}
	if n := rt.MapCache.Hits() + rt.MapCache.Misses(); n != 0 {
		t.Errorf("the MapCache was consulted %d times", n)
	}
	if n := reg.Get("memo_hits_total") + reg.Get("memo_misses_total"); n != 0 {
		t.Errorf("the memo cache was consulted %d times", n)
	}
}
