package query

import (
	"sort"
	"strings"
	"testing"

	"mrapid/internal/mapreduce"
)

// The query layer's own per-layer numbers: each compiled stage closure over
// warehouse-shaped input, and the catalog staging and reading a table,
// outside the simulator. SetBytes counts rows (or groups), so the MB/s
// column reads as million rows (groups) per second.

// group is one key's values as a reducer receives them.
type group struct {
	key    []byte
	values mapreduce.Values
}

// sortedGroups hands each key's values over in the engine's order (sorted),
// equal ones as one counted run.
func sortedGroups(m map[string][][]byte) []group {
	out := make([]group, 0, len(m))
	for k, vs := range m {
		sort.Slice(vs, func(i, j int) bool { return string(vs[i]) < string(vs[j]) })
		out = append(out, group{[]byte(k), runsOf(vs)})
	}
	sort.Slice(out, func(i, j int) bool { return string(out[i].key) < string(out[j].key) })
	return out
}

// salesFile and returnsFile are the files the fixture's splits claim to be.
const (
	salesFile   = "/warehouse/sales/part-00000"
	returnsFile = "/warehouse/returns/part-00000"
)

// stageFixture holds the warehouse's lines and every stage kind compiled
// plain and with a fused filter+projection in front.
type stageFixture struct {
	sales, returns [][]byte
	specs          map[string]*mapreduce.JobSpec // by "<stage>" and "<stage>/fused"
	reduce         mapreduce.ReduceFunc
	joinReduce     mapreduce.ReduceFunc
	states         []group // group-by partial states of eight splits, by cell
	joinValues     []group // tagged join values by cell
}

func newStageFixture(tb testing.TB) *stageFixture {
	tb.Helper()
	cat := codecCatalog(tb)
	stage := func(p *Plan) *mapreduce.JobSpec {
		compiled, err := Compile(cat, "bench", p)
		if err != nil {
			tb.Fatal(err)
		}
		return compiled.Stages[len(compiled.Stages)-1].Spec
	}
	fx := &stageFixture{specs: map[string]*mapreduce.JobSpec{}}
	sales, returns := warehouseRows(4096, 3)
	for _, r := range sales {
		fx.sales = append(fx.sales, EncodeRow(r))
	}
	for _, r := range returns {
		fx.returns = append(fx.returns, EncodeRow(r))
	}
	plain := Scan("sales")
	fused := Scan("sales").Filter(Where("amount", OpGt, "100")).Project("amount", "cell")
	for name, src := range map[string]*Plan{"": plain, "/fused": fused} {
		fx.specs["groupby"+name] = stage(src.GroupBy([]string{"cell"}, Sum("amount"), Count()))
		fx.specs["orderby"+name] = stage(src.OrderBy("amount", true))
		fx.specs["materialize"+name] = stage(src)
		fx.specs["join"+name] = stage(src.Join(Scan("returns"), "cell", "cell"))
	}
	gb := fx.specs["groupby"]
	fx.reduce = gb.Reduce
	states := map[string][][]byte{}
	for i := range 8 {
		n := len(fx.sales) / 8
		mapSplit(gb, salesFile, fx.sales[i*n:(i+1)*n], discard, func(k, v []byte, _ int) {
			states[string(k)] = append(states[string(k)], append([]byte(nil), v...))
		})
	}
	fx.states = sortedGroups(states)

	join := fx.specs["join"]
	fx.joinReduce = join.Reduce
	tagged := map[string][][]byte{}
	for file, lines := range fx.splits("join") {
		mapSplit(join, file, lines, func(k, v []byte) {
			tagged[string(k)] = append(tagged[string(k)], append([]byte(nil), v...))
		}, discardCounted)
	}
	fx.joinValues = sortedGroups(tagged)
	return fx
}

// splits are the lines a stage maps, by the file they claim to be: the
// sales table's, and for a join the returns table's too.
func (fx *stageFixture) splits(name string) map[string][][]byte {
	s := map[string][][]byte{salesFile: fx.sales}
	if strings.HasPrefix(name, "join") {
		s[returnsFile] = fx.returns
	}
	return s
}

// mapSplit runs lines through a stage's map as one split of file: each line
// through the split's record function, which emits through emit, then the
// flush, which emits through counted.
func mapSplit(spec *mapreduce.JobSpec, file string, lines [][]byte, emit mapreduce.Emit, counted mapreduce.CountedEmit) {
	fn, flush := spec.MapFor(file, nil)
	for _, line := range lines {
		fn(nil, line, emit)
	}
	flush(counted)
}

var benchSink int

func discard(k, v []byte) { benchSink += len(k) + len(v) }

func discardCounted(k, v []byte, _ int) { discard(k, v) }

// TestStageClosuresAllocBudget is the allocation gate of the row path: a map
// record function allocates nothing per input row, with or without a fused
// filter+projection, on a split that has already mapped its rows once (a
// group-by's table holds the split's keys) — and reduce allocates at most
// twice per group (a join group past the inline row array allocates its row
// list once). Each measured run is one row or one group, so AllocsPerRun's
// truncated average still reads ≥ 1 for anything allocated per call. A
// whole split is TestGroupBySplitAllocatesNothing's.
func TestStageClosuresAllocBudget(t *testing.T) {
	fx := newStageFixture(t)
	for name, spec := range fx.specs {
		for file, lines := range fx.splits(name) {
			fn, flush := spec.MapFor(file, nil)
			for _, line := range lines {
				fn(nil, line, discard)
			}
			i := 0
			if got := testing.AllocsPerRun(4000, func() {
				fn(nil, lines[i%len(lines)], discard)
				i++
			}); got != 0 {
				t.Errorf("%s map of %s: %v allocations per row, want 0", name, file, got)
			}
			flush(discardCounted)
		}
	}
	for _, c := range []struct {
		name   string
		fn     mapreduce.ReduceFunc
		groups []group
	}{
		{"groupby reduce", fx.reduce, fx.states},
		{"join reduce", fx.joinReduce, fx.joinValues},
	} {
		i := 0
		if got := testing.AllocsPerRun(2000, func() {
			g := c.groups[i%len(c.groups)]
			c.fn(g.key, g.values, discard)
			i++
		}); got > 2 {
			t.Errorf("%s: %v allocations per group, want at most 2", c.name, got)
		}
	}
}

// TestGroupBySplitAllocatesNothing: a whole split of every stage kind —
// materialize, order-by, both sides of the join and group-by, with or
// without a fused filter+projection: its record function over every row,
// then its flush — allocates nothing once warm. The split's scratch or
// aggTable and the flush's state buffer come from free lists, which keep
// every Put, so this holds under the race detector too.
func TestGroupBySplitAllocatesNothing(t *testing.T) {
	fx := newStageFixture(t)
	for name, spec := range fx.specs {
		for file, lines := range fx.splits(name) {
			split := func() { mapSplit(spec, file, lines, discard, discardCounted) }
			split()
			if got := testing.AllocsPerRun(20, split); got != 0 {
				t.Errorf("%s of %s: a warm split of %d rows allocates %v times", name, file, len(lines), got)
			}
		}
	}
}

// benchSplit maps the sales lines through spec as one split per iteration.
func benchSplit(b *testing.B, spec *mapreduce.JobSpec, lines [][]byte) {
	b.ReportAllocs()
	b.SetBytes(int64(len(lines)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapSplit(spec, salesFile, lines, discard, discardCounted)
	}
}

func benchGroups(b *testing.B, fn mapreduce.ReduceFunc, groups []group) {
	b.ReportAllocs()
	b.SetBytes(int64(len(groups)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range groups {
			fn(g.key, g.values, discard)
		}
	}
}

// BenchmarkGroupByMap: filter on amount, project, key on cell, fold into
// the split's table, and flush one partial state per cell — the warehouse
// query's map side, one split per iteration.
func BenchmarkGroupByMap(b *testing.B) {
	fx := newStageFixture(b)
	benchSplit(b, fx.specs["groupby/fused"], fx.sales)
}

// BenchmarkGroupByReduce merges each cell's partial states, one per split
// that saw it, and renders the result row.
func BenchmarkGroupByReduce(b *testing.B) {
	fx := newStageFixture(b)
	benchGroups(b, fx.reduce, fx.states)
}

// BenchmarkJoinReduce pairs each cell's ~8 sales rows with its ~4 returns.
func BenchmarkJoinReduce(b *testing.B) {
	fx := newStageFixture(b)
	benchGroups(b, fx.joinReduce, fx.joinValues)
}

// BenchmarkOrderByMap builds the numeric sort key and passes the row
// through, one whole split per iteration.
func BenchmarkOrderByMap(b *testing.B) {
	fx := newStageFixture(b)
	benchSplit(b, fx.specs["orderby"], fx.sales)
}

// BenchmarkCatalogCreate stages the warehouse's sales table over four files,
// as the query_repeat workload stages its tables, and drops it again.
func BenchmarkCatalogCreate(b *testing.B) {
	cat := codecCatalog(b)
	sales, _ := warehouseRows(4096, 3)
	b.ReportAllocs()
	b.SetBytes(int64(len(sales)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.Create("staged", warehouseSalesSchema, sales, 4); err != nil {
			b.Fatal(err)
		}
		cat.dfs.DeletePrefix("/warehouse/staged/")
		delete(cat.tables, "staged")
	}
}

// BenchmarkReadTable reads that table back into rows, as a finished query
// reads its result table.
func BenchmarkReadTable(b *testing.B) {
	cat := codecCatalog(b)
	sales, _ := warehouseRows(4096, 3)
	tab, err := cat.Create("staged", warehouseSalesSchema, sales, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(sales)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := cat.ReadTable(tab)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(rows)
	}
}
