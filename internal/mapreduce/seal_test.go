package mapreduce_test

import (
	"bytes"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"mrapid/internal/costmodel"
	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
	"mrapid/internal/query"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/workloads"
)

// sealInput is one map's input: the spec and the split's file and bytes.
type sealInput struct {
	spec *mapreduce.JobSpec
	file string
	data []byte
}

// sealShapes are the map shapes a builder seals, each with two inputs of
// the same shape and different bytes: a plain Map, the counted production
// WordCount, the identity map over fixed-length rows into one reduce (its
// partition allocated at the split's exact pair count) and into four, a
// plain Map with a combiner, and a query group-by stage.
func sealShapes(t *testing.T) map[string][2]sealInput {
	t.Helper()
	text := workloads.NewCorpus(30000, 1).Generate(128 << 10)
	halves := func(spec *mapreduce.JobSpec) [2]sealInput {
		return [2]sealInput{{spec, "/in/a", text[:len(text)/2]}, {spec, "/in/b", text[len(text)/2:]}}
	}
	combined := mapreduce.PlainWordCountSpec(true)
	combined.NumReduces = 2
	rows, err := workloads.TeraRows(workloads.TeraGenConfig{Rows: 4000, Files: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var cuts [][]byte
	for _, q := range []int{500, 1000, 1500} { // rows of the first file
		cuts = append(cuts, rows[0][q*100:q*100+workloads.TeraKeyLen])
	}
	slices.SortFunc(cuts, bytes.Compare)
	tera := func(reduces int, cuts [][]byte) [2]sealInput {
		spec := workloads.TeraSortSpecFromCuts("seal-tera", nil, "/out", reduces, cuts)
		return [2]sealInput{{spec, "/tera/0", rows[0]}, {spec, "/tera/1", rows[1]}}
	}
	return map[string][2]sealInput{
		"plain Map":             halves(mapreduce.PlainWordCountSpec(false)),
		"counted WordCount":     halves(workloads.WordCountSpec("seal-wc", nil, "/out", false)),
		"FixedFormat, 1 reduce": tera(1, nil),
		"FixedFormat, 4 reduce": tera(4, cuts),
		"combiner":              halves(combined),
		"group-by":              groupBySplits(t),
	}
}

// groupBySplits compiles a group-by over a two-file table and returns its
// stage's spec with the two files.
func groupBySplits(t *testing.T) [2]sealInput {
	t.Helper()
	eng := sim.NewEngine()
	cluster, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: 4, Racks: 2})
	if err != nil {
		t.Fatal(err)
	}
	params := costmodel.Default()
	dfs := hdfs.New(eng, cluster, params.HDFSBlockBytes, params.Replication, 5)
	cat := query.NewCatalog(dfs, cluster)
	rng := rand.New(rand.NewSource(9))
	var sales []query.Row
	for i := range 2000 {
		sales = append(sales, query.Row{strconv.Itoa(i), "customer-" + strconv.Itoa(rng.Intn(300)), strconv.Itoa(rng.Intn(2000) - 500)})
	}
	if _, err := cat.Create("sales", query.Schema{"id", "customer", "amount"}, sales, 2); err != nil {
		t.Fatal(err)
	}
	plan := query.Scan("sales").GroupBy([]string{"customer"}, query.Count(), query.Sum("amount"), query.Max("amount"))
	compiled, err := query.CompileWith(cat, "seal", plan, query.CompileOptions{TargetBytesPerReduce: 8 << 10, MaxReduces: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range compiled.Stages {
		if st.Kind != "groupby" {
			continue
		}
		var in [2]sealInput
		for i, f := range st.Spec.InputFiles {
			data, err := dfs.Contents(f)
			if err != nil {
				t.Fatal(err)
			}
			in[i] = sealInput{st.Spec, f, data}
		}
		return in
	}
	t.Fatal("the plan compiled to no group-by stage")
	return [2]sealInput{}
}

// checkSealed fails unless mo is sealed exactly and the MapCache books
// exactly the bytes it retains.
func checkSealed(t *testing.T, name string, mo *mapreduce.MapOutput) {
	t.Helper()
	held, err := mapreduce.SealedFootprint(mo)
	if err != nil {
		t.Fatalf("%s: not sealed exactly: %v", name, err)
	}
	if booked := mapreduce.CacheBooks(mo); booked != held {
		t.Fatalf("%s: the MapCache books %d bytes for an output that holds %d", name, booked, held)
	}
}

// Every map output, and every consolidated one, is sealed at its exact
// size: each partition and its counts are capacity-clipped windows, the
// slab's capacity is its length, and the MapCache books exactly those
// bytes, on a cold builder and on one an earlier map warmed.
func TestSealedOutputsAreExact(t *testing.T) {
	for name, in := range sealShapes(t) {
		var outs []*mapreduce.MapOutput
		for _, s := range in {
			mo := mapreduce.ExecMapFile(s.spec, s.file, s.data)
			if mo.Records == 0 || mo.TotalBytes == 0 {
				t.Fatalf("%s: the map produced nothing", name)
			}
			checkSealed(t, name, mo)
			outs = append(outs, mo)
		}
		c := mapreduce.ConsolidateGroup(in[0].spec, outs)
		checkSealed(t, name+", consolidated", c.Out)
	}
}

// A sealed output shares nothing with the scratch it was built in: later
// maps of the same shape through the same builders — which reuse its
// index, counts and slab buffers — leave an earlier output's index, counts
// and bytes as they were.
func TestSealedOutputOutlivesItsScratch(t *testing.T) {
	for name, in := range sealShapes(t) {
		first := mapreduce.ExecMapFile(in[0].spec, in[0].file, in[0].data)
		want := mapreduce.Snapshot(first)
		var second *mapreduce.MapOutput
		for range 2 {
			second = mapreduce.ExecMapFile(in[1].spec, in[1].file, in[1].data)
		}
		if mapreduce.Snapshot(first) != want {
			t.Fatalf("%s: a later map through the same scratch changed an earlier output", name)
		}
		consolidated := mapreduce.ConsolidateGroup(in[0].spec, []*mapreduce.MapOutput{first, first}).Out
		want = mapreduce.Snapshot(consolidated)
		for range 2 {
			mapreduce.ConsolidateGroup(in[1].spec, []*mapreduce.MapOutput{second, second})
		}
		if mapreduce.Snapshot(consolidated) != want {
			t.Fatalf("%s: a later consolidation through the same scratch changed an earlier one", name)
		}
	}
}

// A warm map allocates only the output it seals: the MapOutput, its
// partition, count and byte tables, the index, and the counts and slab
// when it has them. The scan callback and its record count are bound to
// the builder like its emitters, so nothing else is allocated per split.
// (A combiner's merge allocates per partition besides.)
func TestWarmMapAllocatesOnlyItsOutput(t *testing.T) {
	want := map[string]float64{
		"FixedFormat, 1 reduce": 5, // the partition, allocated at its row count, stands for the index
		"FixedFormat, 4 reduce": 5,
		"plain Map":             6, // + the slab of emitted values
		"counted WordCount":     7, // + the slab and the counts
		"group-by":              6, // + the slab of flushed states
	}
	shapes := sealShapes(t)
	for name, n := range want {
		s := shapes[name][0]
		mapreduce.ExecMapFile(s.spec, s.file, s.data)
		if got := testing.AllocsPerRun(10, func() { mapreduce.ExecMapFile(s.spec, s.file, s.data) }); got != n {
			t.Errorf("%s: a warm map made %v allocations, want %v", name, got, n)
		}
	}
}
