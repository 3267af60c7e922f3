package mapreduce_test

import (
	"bytes"
	"fmt"
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

// A differential oracle for the record data path. reference is the
// textbook executor — collect every emitted pair, sort by bytes.Compare on
// key then value, group, reduce, encode — with none of the flat path's
// machinery (no index, no prefix, no in-place bytes, no merge, no
// combiner). Every job below must commit the same bytes through
// ExecMapFile → (ConsolidateGroup) → ExecReduce.

type split struct {
	file string
	data []byte
}

func reference(spec *mapreduce.JobSpec, splits []split) [][]byte {
	type pair struct{ k, v []byte }
	partition := spec.Partition
	if partition == nil {
		partition = mapreduce.HashPartition
	}
	parts := make([][]pair, spec.NumReduces)
	emit := func(ek, ev []byte) {
		p := 0
		if spec.NumReduces > 1 {
			p = partition(ek, spec.NumReduces)
		}
		parts[p] = append(parts[p], pair{bytes.Clone(ek), bytes.Clone(ev)})
	}
	for _, s := range splits {
		mapFn := spec.Map
		var flush func(mapreduce.CountedEmit)
		if spec.MapFor != nil {
			mapFn, flush = spec.MapFor(s.file)
		}
		spec.Format.Scan(s.data, func(k, v []byte) { mapFn(k, v, emit) })
		if flush != nil {
			// A counted pair is n emits of the pair.
			flush(func(k, v []byte, n int) {
				for range n {
					emit(k, v)
				}
			})
		}
	}
	out := make([][]byte, spec.NumReduces)
	for p, ps := range parts {
		slices.SortFunc(ps, func(a, b pair) int {
			if c := bytes.Compare(a.k, b.k); c != 0 {
				return c
			}
			return bytes.Compare(a.v, b.v)
		})
		emit := func(k, v []byte) {
			out[p] = append(append(append(append(out[p], k...), '\t'), v...), '\n')
		}
		for i := 0; i < len(ps); {
			j := i
			var values [][]byte
			var ones []int // every occurrence its own run
			for ; j < len(ps) && bytes.Equal(ps[j].k, ps[i].k); j++ {
				values, ones = append(values, ps[j].v), append(ones, 1)
			}
			spec.Reduce(ps[i].k, mapreduce.NewValues(values, ones), emit)
			i = j
		}
	}
	return out
}

// flat runs the job through the real executors. With consolidate the map
// outputs pass through the shuffle service's merge first, in two groups
// the way two nodes would hold them. order permutes the outputs the reduce
// is fed (nil: as mapped).
func flat(spec *mapreduce.JobSpec, splits []split, consolidate bool, order *rand.Rand) [][]byte {
	outs := make([]*mapreduce.MapOutput, len(splits))
	for i, s := range splits {
		outs[i] = mapreduce.ExecMapFile(spec, s.file, s.data)
	}
	if consolidate && len(outs) > 1 {
		half := (len(outs) + 1) / 2
		outs = []*mapreduce.MapOutput{
			mapreduce.ConsolidateGroup(spec, outs[:half]).Out,
			mapreduce.ConsolidateGroup(spec, outs[half:]).Out,
		}
	}
	if order != nil {
		order.Shuffle(len(outs), func(i, j int) { outs[i], outs[j] = outs[j], outs[i] })
	}
	parts := make([][]byte, spec.NumReduces)
	for p := range parts {
		parts[p] = mapreduce.EncodePairs(mapreduce.ExecReduce(spec, p, outs))
	}
	return parts
}

// agree checks the flat path against the reference, and returns the
// committed part files.
func agree(t *testing.T, name string, spec *mapreduce.JobSpec, splits []split) [][]byte {
	t.Helper()
	want := reference(spec, splits)
	var records int
	for _, part := range want {
		records += bytes.Count(part, []byte("\n"))
	}
	if records == 0 {
		t.Fatalf("%s: the reference produced no output; the case checks nothing", name)
	}
	// The order outputs reach a reduce is the order their maps finished,
	// which differs per mode; the MapCache keys a reduce by the multiset of
	// its inputs, so no order may reach the part file. Each shuffle must
	// commit the reference's bytes too.
	order := rand.New(rand.NewSource(int64(len(splits))))
	for _, consolidate := range []bool{false, true} {
		for _, shuffle := range []*rand.Rand{nil, order, order} {
			got := flat(spec, splits, consolidate, shuffle)
			for p := range want {
				if !bytes.Equal(got[p], want[p]) {
					t.Errorf("%s (consolidate=%v, shuffled=%v): partition %d differs from the reference:\n got %q\nwant %q",
						name, consolidate, shuffle != nil, p, clip(got[p]), clip(want[p]))
				}
			}
		}
	}
	return want
}

// sameCharges checks that counting in the mapper changed no number the cost
// model reads: a counted map output charges the bytes and records of every
// occurrence, exactly as the plain one does, its counts add up to the
// occurrences the plain one's do, and it holds no more pairs. (A plain Map
// job indexes every occurrence as its own pair; a map flush that counted
// its pairs, WordCount's, hands over counted ones.)
func sameCharges(t *testing.T, name string, counted, plain *mapreduce.MapOutput) {
	t.Helper()
	if counted.TotalBytes != plain.TotalBytes || counted.Records != plain.Records || !slices.Equal(counted.PartBytes, plain.PartBytes) {
		t.Errorf("%s: counted output charges %d bytes %v over %d records, plain %d bytes %v over %d",
			name, counted.TotalBytes, counted.PartBytes, counted.Records, plain.TotalBytes, plain.PartBytes, plain.Records)
	}
	for p := range counted.Partitions {
		pairs, n := mapreduce.Distinct(counted, p)
		if wantPairs, want := mapreduce.Distinct(plain, p); n != want || pairs > wantPairs {
			t.Errorf("%s: partition %d counts %d occurrences in %d pairs, plain it holds %d occurrences in %d pairs", name, p, n, pairs, want, wantPairs)
		}
	}
}

func clip(b []byte) []byte {
	if len(b) > 400 {
		return b[:400]
	}
	return b
}

// adversarialKeys stress every branch of the prefix comparator: shorter
// than, exactly, and longer than the 8-byte prefix; embedded NUL and 0xff;
// shared prefixes; one key a strict prefix of another.
var adversarialKeys = []string{
	"a", "ab", "abcdefg", "abcdefgh", "abcdefgh\x00", "abcdefgh\x00\x00", "abcdefghi", "abcdefghij",
	"abcdefgh\xff", "abcdefg\x00", "abcdef\x00\x00", "\x00", "\x00\x00", "\x00a", "a\x00", "a\x00b",
	"\xff", "\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff",
	"\xff\xff\xff\xff\xff\xff\xff\xff\x00", "request-a", "request-b", "request", "zzzzzzzzzzzzzzzz",
}

// adversarialText spreads the keys over lines and splits with uneven
// multiplicities.
func adversarialText(seed int64, nsplits int) []split {
	rng := rand.New(rand.NewSource(seed))
	splits := make([]split, nsplits)
	for i := range splits {
		var buf bytes.Buffer
		for line := 0; line < 120; line++ {
			for w := 0; w < 1+rng.Intn(9); w++ {
				// Squaring the draw makes low indexes frequent, high ones rare.
				f := rng.Float64()
				buf.WriteString(adversarialKeys[int(f*f*float64(len(adversarialKeys)))])
				buf.WriteByte(" \t"[rng.Intn(2)])
			}
			buf.WriteByte('\n')
		}
		splits[i] = split{fmt.Sprintf("/in/text-%d", i), buf.Bytes()}
	}
	return splits
}

// WordCount twice: the production job, which counts its words in the
// mapper's word table, and a plain Map that emits every occurrence, which
// reaches the merge uncounted. Split by split, the two map outputs must
// charge alike.
func TestOracleWordCount(t *testing.T) {
	splits := adversarialText(1, 5)
	for _, combiner := range []bool{false, true} {
		for _, reduces := range []int{1, 4} {
			counted, plain := workloads.WordCountSpec("wc", nil, "/out", combiner), mapreduce.PlainWordCountSpec(combiner)
			counted.NumReduces, plain.NumReduces = reduces, reduces
			name := fmt.Sprintf("combiner=%v reduces=%d", combiner, reduces)
			agree(t, "wordcount "+name, counted, splits)
			agree(t, "plain wordcount "+name, plain, splits)
			for _, s := range splits {
				sameCharges(t, name+" "+s.file, mapreduce.ExecMapFile(counted, s.file, s.data), mapreduce.ExecMapFile(plain, s.file, s.data))
			}
		}
	}
}

func TestOracleGrep(t *testing.T) {
	search := workloads.GrepSearchSpec("grep", nil, "/tmp", "request")
	found := agree(t, "grep search", search, adversarialText(2, 4))
	sortSpec := workloads.GrepSortSpec("grep-sort", nil, "/out")
	agree(t, "grep sort", sortSpec, []split{{"/tmp/part-00000", found[0]}})
}

// Fixed-width rows trimmed of '_' padding: empty keys, empty values, values
// that differ only in length, all emitted in place — plus an upper-cased
// copy of every pair, which can only live in the slab.
func TestOracleEmptyKeysAndValues(t *testing.T) {
	rows := []string{
		"____________v1__", "____________v1__", "________________", "a___________v2__", "a_______________",
		"abcdefgh____v___", "abcdefghi___v___", "abcdefgh____vv__", "abcdefghijkl____", "abcdefghijklvvvv",
		"ab__________v1__", "a___________v1__", "____________v___",
	}
	rng := rand.New(rand.NewSource(3))
	splits := make([]split, 3)
	for i := range splits {
		var buf bytes.Buffer
		for n := 0; n < 200; n++ {
			buf.WriteString(rows[rng.Intn(len(rows))])
		}
		splits[i] = split{fmt.Sprintf("/in/rows-%d", i), buf.Bytes()}
	}
	for _, reduces := range []int{1, 4} {
		spec := &mapreduce.JobSpec{
			Name: "trimmed", NumReduces: reduces,
			Format: mapreduce.FixedFormat{KeyLen: 12, ValLen: 4},
			Map: func(k, v []byte, emit mapreduce.Emit) {
				k, v = bytes.TrimRight(k, "_"), bytes.TrimRight(v, "_")
				emit(k, v)
				emit(bytes.ToUpper(k), bytes.ToUpper(v))
			},
			// Position-tagged values make the output depend on value order.
			Reduce: func(k []byte, vs mapreduce.Values, emit mapreduce.Emit) {
				i := 0
				vs.Each(func(v []byte) {
					emit(k, append(strconv.AppendInt(nil, int64(i), 10), v...))
					i++
				})
			},
		}
		agree(t, fmt.Sprintf("trimmed rows reduces=%d", reduces), spec, splits)
	}
}

func TestOracleTeraSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Ten-byte keys drawn from few distinct bytes: long shared prefixes,
	// NUL and 0xff everywhere, and exact duplicates.
	alphabet := []byte{0x00, 0x00, 'a', 'b', 0xff}
	splits := make([]split, 4)
	for i := range splits {
		data := make([]byte, 300*workloads.TeraRowLen)
		for j := range data {
			if j%workloads.TeraRowLen < workloads.TeraKeyLen {
				data[j] = alphabet[rng.Intn(len(alphabet))]
			} else {
				data[j] = byte('A' + rng.Intn(3))
			}
		}
		splits[i] = split{fmt.Sprintf("/in/tera-%d", i), data}
	}
	cuts := [][]byte{[]byte("\x00\x00b"), []byte("a"), []byte("b\xff")}
	agree(t, "terasort", workloads.TeraSortSpecFromCuts("tera", nil, "/out", 4, cuts), splits)
}

// PI's reduce sums counted partial totals; the control lines stand in for
// the per-map files GeneratePiInput stages.
func TestOraclePi(t *testing.T) {
	splits := make([]split, 5)
	for i := range splits {
		splits[i] = split{fmt.Sprintf("/in/pi-%d", i), []byte(fmt.Sprintf("%d,%d\n", i*3000, 3000))}
	}
	agree(t, "pi", workloads.PiSpec(nil, "pi", nil, "/out"), splits)
}

// One compiled query, stage by stage: repartition join (per-file map
// functions), group-by (per-split aggregation flushed as partial states),
// order-by (order-preserving numeric keys). Each stage reads what the
// reference says the one before it committed.
func TestOracleQueryStages(t *testing.T) {
	eng := sim.NewEngine()
	cluster, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: 4, Racks: 2})
	if err != nil {
		t.Fatal(err)
	}
	params := costmodel.Default()
	dfs := hdfs.New(eng, cluster, params.HDFSBlockBytes, params.Replication, 5)
	cat := query.NewCatalog(dfs, cluster)

	rng := rand.New(rand.NewSource(6))
	customers := []string{"c", "cu", "customer", "customer-", "customer-1", "customer-10", "customer-2", "\xffz"}
	var sales, people []query.Row
	for i := 0; i < 400; i++ {
		sales = append(sales, query.Row{strconv.Itoa(i), customers[rng.Intn(len(customers))], strconv.Itoa(rng.Intn(2000) - 500)})
	}
	for i, c := range customers {
		people = append(people, query.Row{c, []string{"east", "west", ""}[i%3]})
	}
	if _, err := cat.Create("sales", query.Schema{"id", "customer", "amount"}, sales, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Create("people", query.Schema{"name", "region"}, people, 2); err != nil {
		t.Fatal(err)
	}
	plan := query.Scan("sales").Join(query.Scan("people"), "customer", "name").
		GroupBy([]string{"region", "customer"}, query.Count(), query.Sum("amount"), query.Min("amount"), query.Max("amount")).
		OrderBy("sum(amount)", true)
	compiled, err := query.CompileWith(cat, "q", plan, query.CompileOptions{TargetBytesPerReduce: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, st := range compiled.Stages {
		kinds[st.Kind] = true
		var splits []split
		for _, f := range st.Spec.InputFiles {
			data, err := dfs.Contents(f)
			if err != nil {
				t.Fatal(err)
			}
			splits = append(splits, split{f, data})
		}
		parts := agree(t, "query stage "+st.Kind, st.Spec, splits)
		for p, data := range parts {
			if _, err := dfs.PutInstant(st.Out.Files[p], data, cluster.Workers()[p%4]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !kinds["join"] || !kinds["groupby"] || !kinds["orderby"] {
		t.Fatalf("the plan compiled to %v, not to a join, a group-by and an order-by", kinds)
	}
}
