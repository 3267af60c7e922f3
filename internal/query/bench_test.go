package query

import (
	"sort"
	"testing"

	"mrapid/internal/mapreduce"
)

// The query layer's own per-layer numbers: each compiled stage closure over
// warehouse-shaped input, outside the simulator. SetBytes counts rows (or
// groups), so the MB/s column reads as million rows (groups) per second.

// group is one key's values as a combiner or reducer receives them.
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

// stageFixture holds the warehouse's lines and every stage closure compiled
// plain and with a fused filter+projection in front.
type stageFixture struct {
	sales, returns [][]byte
	maps           map[string]mapreduce.MapFunc // by "<stage>" and "<stage>/fused"
	combine        mapreduce.ReduceFunc
	reduce         mapreduce.ReduceFunc
	joinReduce     mapreduce.ReduceFunc
	states         []group // group-by map output by cell
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
	fx := &stageFixture{maps: map[string]mapreduce.MapFunc{}}
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
		fx.maps["groupby"+name] = stage(src.GroupBy([]string{"cell"}, Sum("amount"), Count())).Map
		fx.maps["orderby"+name] = stage(src.OrderBy("amount", true)).Map
		fx.maps["materialize"+name] = stage(src).Map
		fx.maps["join"+name] = stage(src.Join(Scan("returns"), "cell", "cell")).MapFor("/warehouse/sales/part-00000")
	}
	gb := stage(plain.GroupBy([]string{"cell"}, Sum("amount"), Count()))
	fx.combine, fx.reduce = gb.Combine, gb.Reduce
	states := map[string][][]byte{}
	groupsOf(fx.sales, gb.Map, states)
	fx.states = sortedGroups(states)

	join := stage(plain.Join(Scan("returns"), "cell", "cell"))
	fx.joinReduce = join.Reduce
	tagged := map[string][][]byte{}
	groupsOf(fx.sales, join.MapFor("/warehouse/sales/part-00000"), tagged)
	groupsOf(fx.returns, join.MapFor("/warehouse/returns/part-00000"), tagged)
	fx.joinValues = sortedGroups(tagged)
	return fx
}

var benchSink int

func discard(k, v []byte) { benchSink += len(k) + len(v) }

// TestStageClosuresAllocBudget is the allocation gate of the row path: a map
// closure allocates nothing per input row, with or without a fused
// filter+projection, and combine and reduce allocate at most twice per group
// (a join group past the inline row array allocates its row list once). Each
// measured run is one row or one group, so AllocsPerRun's truncated average
// absorbs the pool refills a GC cycle — or the race detector's randomly
// dropped Puts — cause, and still reads ≥ 1 for anything allocated per call.
func TestStageClosuresAllocBudget(t *testing.T) {
	fx := newStageFixture(t)
	for name, fn := range fx.maps {
		i := 0
		if got := testing.AllocsPerRun(4000, func() {
			fn(nil, fx.sales[i%len(fx.sales)], discard)
			i++
		}); got != 0 {
			t.Errorf("%s map: %v allocations per row, want 0", name, got)
		}
	}
	for _, c := range []struct {
		name   string
		fn     mapreduce.ReduceFunc
		groups []group
	}{
		{"groupby combine", fx.combine, fx.states},
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

// BenchmarkGroupByMap: filter on amount, project, key on cell, emit the
// partial state — the warehouse query's map side.
func BenchmarkGroupByMap(b *testing.B) {
	fx := newStageFixture(b)
	benchMap(b, fx.maps["groupby/fused"], fx.sales)
}

// BenchmarkGroupByCombine merges each cell's ~8 one-row states into one.
func BenchmarkGroupByCombine(b *testing.B) {
	fx := newStageFixture(b)
	benchGroups(b, fx.combine, fx.states)
}

// BenchmarkGroupByReduce merges the same states and renders the result row.
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
