package mapreduce

import (
	"bytes"
	"strconv"
	"testing"
	"testing/quick"
	"unicode"

	"mrapid/internal/costmodel"
	"mrapid/internal/hdfs"
	"mrapid/internal/profiler"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

// newTestRuntime builds a full simulated cluster runtime for tests.
func newTestRuntime(t *testing.T, instance topology.InstanceType, workers int, sched yarn.Scheduler) *Runtime {
	t.Helper()
	eng := sim.NewEngine()
	cluster, err := topology.NewCluster(eng, topology.Spec{Instance: instance, Workers: workers, Racks: 2})
	if err != nil {
		t.Fatal(err)
	}
	params := costmodel.Default()
	dfs := hdfs.New(eng, cluster, params.HDFSBlockBytes, params.Replication, 42)
	rm := yarn.NewRM(eng, cluster, params, sched)
	rm.Start()
	rt := NewRuntime(eng, cluster, dfs, rm, params)
	// Conservation at teardown: whatever the test did to the cluster, the
	// RM's incremental resource view must still equal a recomputation, and
	// every byte budget the sum of its resident copies.
	t.Cleanup(func() {
		if err := rm.CheckView(); err != nil {
			t.Error(err)
		}
		if err := rt.CheckResidency(); err != nil {
			t.Error(err)
		}
	})
	return rt
}

// wcOne is the count the fixture's map emits with every word, and
// wcCountTexts the decimal text of every total below 1000: shared and
// read-only, so that allocs/op of a benchmark over these doubles counts
// the record path's allocations and none of the fixture's.
var (
	wcOne        = []byte("1")
	wcCountTexts = func() (texts [1000][]byte) {
		for n := range texts {
			texts[n] = []byte(strconv.Itoa(n))
		}
		return texts
	}()
)

// wcTestMap and wcTestReduce are WordCount as named functions, so specs
// built by wcSpec and PlainWordCountSpec are reusable by the MapCache.
func wcTestMap(_, line []byte, emit Emit) {
	start := -1
	for i, c := range line {
		if c == ' ' || c == '\t' {
			if start >= 0 {
				emit(line[start:i], wcOne)
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		emit(line[start:], wcOne)
	}
}

func wcTestReduce(key []byte, values Values, emit Emit) {
	total := 0
	for i := range values.Len() {
		v, times := values.At(i)
		if len(v) == 1 {
			total += times * int(v[0]-'0')
			continue
		}
		n, _ := strconv.Atoi(string(v))
		total += times * n
	}
	if total < len(wcCountTexts) {
		emit(key, wcCountTexts[total])
		return
	}
	emit(key, []byte(strconv.Itoa(total)))
}

// wcSpec is WordCount with its words counted in the mapper, the way the
// production WordCount counts them: each split's record function tallies
// its words, and the flush hands each distinct word over once, as
// (word, "1") × its count, the word a sub-slice of the split at its first
// occurrence.
func wcSpec(inputs []string, output string) *JobSpec {
	return &JobSpec{
		Name:       "wc-test",
		JobKey:     "wordcount",
		InputFiles: inputs,
		OutputFile: output,
		NumReduces: 1,
		Format:     LineFormat{},
		MapFor:     wcCountedSplit,
		Reduce:     wcTestReduce,
		MapRate:    6e6,
		ReduceRate: 12e6,
	}
}

func wcCountedSplit(string) (MapFunc, func(CountedEmit)) {
	type tally struct {
		word []byte
		n    int
	}
	seen := map[string]int{}
	var tallies []tally
	count := func(w, _ []byte) {
		i, ok := seen[string(w)]
		if !ok {
			i = len(tallies)
			seen[string(w)] = i
			tallies = append(tallies, tally{word: w})
		}
		tallies[i].n++
	}
	mapFn := func(k, line []byte, _ Emit) { wcTestMap(k, line, count) }
	return mapFn, func(emit CountedEmit) {
		for _, t := range tallies {
			emit(t.word, wcOne, t.n)
		}
	}
}

func TestExecMapPartitionsAndSorts(t *testing.T) {
	spec := wcSpec([]string{"/x"}, "/o")
	spec.NumReduces = 4
	mo := ExecMap(spec, []byte("pear apple pear\nbanana apple\n"))
	if mo.Records != 2 {
		t.Fatalf("records = %d, want 2 lines", mo.Records)
	}
	var distinct, total int
	for p, pairs := range mo.Partitions {
		for i := 1; i < len(pairs); i++ {
			if bytes.Compare(mo.key(pairs[i-1]), mo.key(pairs[i])) >= 0 {
				t.Fatalf("partition %d not sorted, or a repeated word not counted", p)
			}
		}
		for _, pr := range pairs {
			if HashPartition(mo.key(pr), 4) != p {
				t.Fatalf("key %q in wrong partition %d", mo.key(pr), p)
			}
		}
		n, occurrences := Distinct(mo, p)
		distinct += n
		total += occurrences
	}
	if distinct != 3 || total != 5 {
		t.Fatalf("%d pairs counted %d times, want 3 distinct words of 5", distinct, total)
	}
	var sum int64
	for p := range mo.PartBytes {
		sum += mo.PartBytes[p]
	}
	if sum != mo.TotalBytes || mo.TotalBytes == 0 {
		t.Fatalf("byte accounting wrong: %v vs %d", mo.PartBytes, mo.TotalBytes)
	}
}

func TestExecMapCombiner(t *testing.T) {
	spec := wcSpec([]string{"/x"}, "/o")
	spec.Combine = spec.Reduce
	data := []byte("a a a b\n")
	mo := ExecMap(spec, data)
	if n, occurrences := Distinct(mo, 0); n != 2 || occurrences != 2 {
		t.Fatalf("combiner left %d pairs counted %d times, want 2 once each", n, occurrences)
	}
	for _, p := range mo.Partitions[0] {
		if string(mo.key(p)) == "a" && string(mo.value(p)) != "3" {
			t.Fatalf("combined count for a = %q", mo.value(p))
		}
	}
	// A combiner that keeps every value sees each counted occurrence, and
	// its output charges what a plain map emits.
	counted := wcSpec([]string{"/x"}, "/o")
	counted.Combine = identityReduce
	kept, raw := ExecMap(counted, data), ExecMap(PlainWordCountSpec(false), data)
	if _, occurrences := Distinct(kept, 0); occurrences != 4 || kept.TotalBytes != raw.TotalBytes {
		t.Fatalf("identity combiner kept %d occurrences, %d bytes; the map emitted 4, %d bytes", occurrences, kept.TotalBytes, raw.TotalBytes)
	}
}

func TestExecReduceGroupsAcrossOutputs(t *testing.T) {
	spec := wcSpec([]string{"/x"}, "/o")
	a := ExecMap(spec, []byte("x y\n"))
	b := ExecMap(spec, []byte("y z\n"))
	out := ExecReduce(spec, 0, []*MapOutput{a, b})
	// One line per key, key-sorted.
	if string(out.Encoded) != "x\t1\ny\t2\nz\t1\n" || out.Records != 3 {
		t.Fatalf("reduce output = %q (%d records)", out.Encoded, out.Records)
	}
}

// Property: ExecMap/ExecReduce over any partition count computes the same
// word counts as direct counting.
func TestQuickMapReduceEquivalence(t *testing.T) {
	f := func(raw []byte, nred8 uint8) bool {
		nred := 1 + int(nred8%5)
		// The fixture's map splits on space and tab only; fold the rest of
		// what bytes.Fields calls a space so the two tokenize alike.
		data := bytes.Map(func(r rune) rune {
			if r == 0 || unicode.IsSpace(r) && r != '\n' {
				return ' '
			}
			return r
		}, raw)
		spec := wcSpec([]string{"/x"}, "/o")
		spec.NumReduces = nred
		mo := ExecMap(spec, data)
		want := map[string]int{}
		for _, w := range bytes.Fields(data) {
			want[string(w)]++
		}
		got := map[string]int{}
		for p := 0; p < nred; p++ {
			// Words hold neither tab nor newline (bytes.Fields splits on
			// both), so the encoded lines parse back unambiguously.
			for _, line := range bytes.Split(ExecReduce(spec, p, []*MapOutput{mo}).Encoded, []byte("\n")) {
				if len(line) == 0 {
					continue
				}
				tab := bytes.LastIndexByte(line, '\t')
				n, err := strconv.Atoi(string(line[tab+1:]))
				if tab < 0 || err != nil {
					return false
				}
				got[string(line[:tab])] = n
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSpillCount(t *testing.T) {
	cases := []struct {
		n, buf int64
		want   int
	}{
		{0, 100, 0}, {1, 100, 1}, {100, 100, 1}, {101, 100, 2}, {350, 100, 4},
	}
	for _, c := range cases {
		if got := spillCount(c.n, c.buf); got != c.want {
			t.Errorf("spillCount(%d,%d) = %d, want %d", c.n, c.buf, got, c.want)
		}
	}
}

func TestRunMapTaskChargesPhases(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	node := rt.Cluster.Workers()[0]
	data := bytes.Repeat([]byte("hello world foo bar baz qux\n"), 50_000) // ~1.4 MB
	rt.DFS.PutInstant("/in", data, node)
	splits, _ := rt.DFS.Splits([]string{"/in"})
	spec := wcSpec([]string{"/in"}, "/out")

	var gotMO *MapOutput
	rt.RunMapTask(spec, splits[0], node, TaskOptions{}, func(mo *MapOutput, tp *profiler.TaskProfile, err error) {
		if err != nil {
			t.Errorf("map failed: %v", err)
		}
		gotMO = mo
		if tp.ReadDur <= 0 || tp.ComputeDur <= 0 || tp.SpillDur <= 0 {
			t.Errorf("phases not charged: read=%v compute=%v spill=%v", tp.ReadDur, tp.ComputeDur, tp.SpillDur)
		}
		if tp.Spills != 1 {
			t.Errorf("spills = %d, want 1", tp.Spills)
		}
		if !tp.NodeLocal {
			t.Error("local read not flagged NodeLocal")
		}
		if tp.InputBytes != int64(len(data)) {
			t.Errorf("InputBytes = %d", tp.InputBytes)
		}
	})
	rt.Eng.RunUntil(sim.Time(1 << 40))
	if gotMO == nil {
		t.Fatal("map never completed")
	}
	if gotMO.TotalBytes == 0 || gotMO.Records == 0 {
		t.Fatal("map produced no output")
	}
}

func TestRunMapTaskMemoryModeSkipsSpill(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	node := rt.Cluster.Workers()[0]
	rt.DFS.PutInstant("/in", bytes.Repeat([]byte("a b c\n"), 1000), node)
	splits, _ := rt.DFS.Splits([]string{"/in"})
	spec := wcSpec([]string{"/in"}, "/out")
	done := false
	rt.RunMapTask(spec, splits[0], node, TaskOptions{KeepInMemory: func(int64) bool { return true }}, func(mo *MapOutput, tp *profiler.TaskProfile, err error) {
		done = true
		if tp.SpillDur != 0 || tp.Spills != 0 {
			t.Errorf("memory mode charged spill: %v / %d", tp.SpillDur, tp.Spills)
		}
		if !mo.InMemory {
			t.Error("output not marked InMemory")
		}
	})
	rt.Eng.RunUntil(sim.Time(1 << 40))
	if !done {
		t.Fatal("map never completed")
	}
}

func TestMergePassChargedWhenOutputExceedsSortBuffer(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	rt.Params.SortBufferBytes = 10 << 10 // 10 KB buffer forces merging
	node := rt.Cluster.Workers()[0]
	rt.DFS.PutInstant("/in", bytes.Repeat([]byte("alpha beta gamma delta\n"), 5000), node)
	splits, _ := rt.DFS.Splits([]string{"/in"})
	spec := wcSpec([]string{"/in"}, "/out")
	done := false
	rt.RunMapTask(spec, splits[0], node, TaskOptions{}, func(_ *MapOutput, tp *profiler.TaskProfile, err error) {
		done = true
		if tp.Spills < 2 {
			t.Errorf("spills = %d, want ≥ 2", tp.Spills)
		}
		if tp.MergeDur <= 0 {
			t.Error("merge pass not charged")
		}
	})
	rt.Eng.RunUntil(sim.Time(1 << 40))
	if !done {
		t.Fatal("map never completed")
	}
}

func TestFetchPartitionCosts(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	src := rt.Cluster.Workers()[0]
	dst := rt.Cluster.Workers()[1]
	spec := wcSpec([]string{"/x"}, "/o")
	mo := ExecMap(spec, bytes.Repeat([]byte("word list for shuffle cost test\n"), 100_000))
	mo.Node = src

	measure := func(m *MapOutput, to *topology.Node) float64 {
		e := sim.NewEngine()
		c, _ := topology.NewCluster(e, topology.Spec{Instance: topology.A3, Workers: 4, Racks: 2})
		p := costmodel.Default()
		d := hdfs.New(e, c, p.HDFSBlockBytes, p.Replication, 42)
		r2 := NewRuntime(e, c, d, nil, p)
		m2 := *m
		m2.Node = c.Workers()[m.Node.ID-1]
		var at sim.Time
		r2.FetchPartition(&m2, 0, c.Workers()[to.ID-1], func(err error) {
			if err != nil {
				t.Fatalf("fetch failed: %v", err)
			}
			at = e.Now()
		})
		e.Run()
		return at.Seconds()
	}

	mo.InMemory = false
	remote := measure(mo, dst)
	local := measure(mo, src)
	if remote <= local {
		t.Errorf("remote fetch %.4fs not slower than local disk read %.4fs", remote, local)
	}
	mo.InMemory = true
	mem := measure(mo, src)
	if mem != 0 {
		t.Errorf("in-memory same-node fetch cost %.4fs, want 0", mem)
	}
	// In-memory flag does not help a remote reader.
	memRemote := measure(mo, dst)
	if memRemote <= 0 {
		t.Error("remote fetch of in-memory output should still cost network time")
	}
}

func TestPartFileName(t *testing.T) {
	if PartFileName("/out", 3) != "/out/part-00003" {
		t.Fatalf("PartFileName = %q", PartFileName("/out", 3))
	}
}

func TestGroupsYieldEachKeyOnce(t *testing.T) {
	spec := wcSpec([]string{"/x"}, "/o")
	outs := []*MapOutput{ExecMap(spec, []byte("a b\n")), ExecMap(spec, []byte("a\n"))}
	var keys []string
	var sizes []int
	newMerger(outs, 0).groups(func(k []byte, vs Values, _ Emit) {
		keys = append(keys, string(k))
		n := 0
		vs.Each(func([]byte) { n++ })
		sizes = append(sizes, n)
	}, nil)
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" || sizes[0] != 2 || sizes[1] != 1 {
		t.Fatalf("groups = %v %v", keys, sizes)
	}
}
