package query

import (
	"sort"
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

// groupsOf runs fn over lines and gathers what it emits by key; sortedGroups
// hands each key's values over in the engine's order (sorted), equal ones
// as one counted run.
func groupsOf(lines [][]byte, fn mapreduce.MapFunc, into map[string][][]byte) {
	for _, line := range lines {
		fn(nil, line, func(k, v []byte) {
			into[string(k)] = append(into[string(k)], append([]byte(nil), v...))
		})
	}
}

func sortedGroups(m map[string][][]byte) []group {
	out := make([]group, 0, len(m))
	for k, vs := range m {
		sort.Slice(vs, func(i, j int) bool { return string(vs[i]) < string(vs[j]) })
		out = append(out, group{[]byte(k), runsOf(vs)})
	}
	sort.Slice(out, func(i, j int) bool { return string(out[i].key) < string(out[j].key) })
	return out
}

// salesFile is the file the fixture's splits claim to be.
const salesFile = "/warehouse/sales/part-00000"

// stageFixture holds the warehouse's lines and every stage's map compiled
// plain and with a fused filter+projection in front.
type stageFixture struct {
	sales, returns [][]byte
	maps           map[string]mapreduce.MapFunc  // by "<stage>" and "<stage>/fused"
	groupBy        map[string]*mapreduce.JobSpec // "groupby" and "groupby/fused"
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
	fx := &stageFixture{maps: map[string]mapreduce.MapFunc{}, groupBy: map[string]*mapreduce.JobSpec{}}
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
		fx.groupBy["groupby"+name] = stage(src.GroupBy([]string{"cell"}, Sum("amount"), Count()))
		fx.maps["orderby"+name] = stage(src.OrderBy("amount", true)).Map
		fx.maps["materialize"+name] = stage(src).Map
		fx.maps["join"+name], _ = stage(src.Join(Scan("returns"), "cell", "cell")).MapFor(salesFile, nil)
	}
	gb := fx.groupBy["groupby"]
	fx.reduce = gb.Reduce
	states := map[string][][]byte{}
	for i := range 8 {
		n := len(fx.sales) / 8
		mapSplit(gb, salesFile, fx.sales[i*n:(i+1)*n], func(k, v []byte, _ int) {
			states[string(k)] = append(states[string(k)], append([]byte(nil), v...))
		})
	}
	fx.states = sortedGroups(states)

	join := stage(plain.Join(Scan("returns"), "cell", "cell"))
	fx.joinReduce = join.Reduce
	tagged := map[string][][]byte{}
	leftMap, _ := join.MapFor(salesFile, nil)
	rightMap, _ := join.MapFor("/warehouse/returns/part-00000", nil)
	groupsOf(fx.sales, leftMap, tagged)
	groupsOf(fx.returns, rightMap, tagged)
	fx.joinValues = sortedGroups(tagged)
	return fx
}

// mapSplit runs lines through a group-by spec's map as one split of file:
// each line through the split's record function, which only folds it into
// the split's table (its emit is nil), then the flush.
func mapSplit(spec *mapreduce.JobSpec, file string, lines [][]byte, emit mapreduce.CountedEmit) {
	fn, flush := spec.MapFor(file, nil)
	for _, line := range lines {
		fn(nil, line, nil)
	}
	flush(emit)
}

var benchSink int

func discard(k, v []byte) { benchSink += len(k) + len(v) }

func discardCounted(k, v []byte, _ int) { discard(k, v) }

// TestStageClosuresAllocBudget is the allocation gate of the row path: a map
// record function allocates nothing per input row, with or without a fused
// filter+projection — the group-by's on a table that already holds the
// split's keys — and reduce allocates at most twice per group (a join group
// past the inline row array allocates its row list once). Each measured run
// is one row or one group, so AllocsPerRun's truncated average still reads
// ≥ 1 for anything allocated per call. A whole group-by split is
// TestGroupBySplitAllocatesNothing's.
func TestStageClosuresAllocBudget(t *testing.T) {
	fx := newStageFixture(t)
	perRow := func(name string, fn mapreduce.MapFunc) {
		i := 0
		if got := testing.AllocsPerRun(4000, func() {
			fn(nil, fx.sales[i%len(fx.sales)], discard)
			i++
		}); got != 0 {
			t.Errorf("%s map: %v allocations per row, want 0", name, got)
		}
	}
	for name, fn := range fx.maps {
		perRow(name, fn)
	}
	for name, spec := range fx.groupBy {
		fn, flush := spec.MapFor(salesFile, nil)
		for _, line := range fx.sales {
			fn(nil, line, discard)
		}
		perRow(name, fn)
		flush(discardCounted)
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

// TestGroupBySplitAllocatesNothing: a whole group-by split — its record
// function over every row, then its flush — allocates nothing on a warm
// aggTable, with or without a fused filter+projection. The tables and the
// flush's state buffer come from free lists, which keep every Put, so this
// holds under the race detector too.
func TestGroupBySplitAllocatesNothing(t *testing.T) {
	fx := newStageFixture(t)
	for name, spec := range fx.groupBy {
		mapSplit(spec, salesFile, fx.sales, discardCounted)
		if got := testing.AllocsPerRun(20, func() { mapSplit(spec, salesFile, fx.sales, discardCounted) }); got != 0 {
			t.Errorf("%s: a warm split of %d rows allocates %v times", name, len(fx.sales), got)
		}
	}
}

func benchMap(b *testing.B, fn mapreduce.MapFunc, lines [][]byte) {
	b.ReportAllocs()
	b.SetBytes(int64(len(lines)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, line := range lines {
			fn(nil, line, discard)
		}
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
	spec := fx.groupBy["groupby/fused"]
	b.ReportAllocs()
	b.SetBytes(int64(len(fx.sales)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapSplit(spec, salesFile, fx.sales, discardCounted)
	}
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

// BenchmarkOrderByMap builds the numeric sort key and passes the row through.
func BenchmarkOrderByMap(b *testing.B) {
	fx := newStageFixture(b)
	benchMap(b, fx.maps["orderby"], fx.sales)
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
