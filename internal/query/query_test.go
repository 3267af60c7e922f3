package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mrapid/internal/core"
	"mrapid/internal/costmodel"
	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

// env bundles a started framework + catalog for query tests. newEnv's runner
// keeps one stage of a query in flight at a time, so this file's end-to-end
// suite covers the stage-chain schedule; newDAGEnv's overlaps branches.
// tables keeps what mustCreate loaded for the reference evaluator.
type env struct {
	eng    *sim.Engine
	rm     *yarn.RM
	cat    *Catalog
	run    *DAGRunner
	tables map[string]refTable
}

func newEnv(t *testing.T) *env {
	t.Helper()
	eng := sim.NewEngine()
	cluster, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: 4, Racks: 2})
	if err != nil {
		t.Fatal(err)
	}
	params := costmodel.Default()
	dfs := hdfs.New(eng, cluster, params.HDFSBlockBytes, params.Replication, 5)
	rm := yarn.NewRM(eng, cluster, params, core.NewDPlusScheduler(core.FullDPlus()))
	rm.Start()
	rt := mapreduce.NewRuntime(eng, cluster, dfs, rm, params)
	fw := core.NewFramework(rt, 3, core.FullUPlus())
	ready := false
	eng.After(0, func() { fw.Start(func() { ready = true }) })
	eng.RunUntil(sim.Time(60 * time.Second))
	if !ready {
		t.Fatal("framework not ready")
	}
	cat := NewCatalog(dfs, cluster)
	run, err := NewDAGRunner(fw, nil, cat)
	if err != nil {
		t.Fatal(err)
	}
	run.Sequential = true
	return &env{eng: eng, rm: rm, cat: cat, run: run, tables: map[string]refTable{}}
}

// salesRows builds a deterministic sales table.
func salesRows(n int, seed int64) []Row {
	rng := rand.New(rand.NewSource(seed))
	regions := []string{"east", "west", "north", "south"}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			strconv.Itoa(i),                        // id
			regions[rng.Intn(len(regions))],        // region
			strconv.Itoa(100 + rng.Intn(900)),      // amount
			fmt.Sprintf("cust-%02d", rng.Intn(20)), // customer
		}
	}
	return rows
}

var salesSchema = Schema{"id", "region", "amount", "customer"}

func (e *env) mustCreate(t *testing.T, name string, schema Schema, rows []Row, files int) *Table {
	t.Helper()
	tab, err := e.cat.Create(name, schema, rows, files)
	if err != nil {
		t.Fatal(err)
	}
	e.tables[name] = refTable{schema, rows}
	return tab
}

// exec runs a plan to completion on the virtual clock.
func (e *env) exec(t *testing.T, p *Plan) *Result {
	t.Helper()
	var res *Result
	var errOut error
	e.eng.After(0, func() {
		e.run.Run(p, func(r *Result, err error) {
			res, errOut = r, err
		})
	})
	e.eng.RunUntil(e.eng.Now().Add(1 << 42))
	if errOut != nil {
		t.Fatal(errOut)
	}
	if res == nil {
		t.Fatal("query never completed")
	}
	return res
}

func TestRowEncodeDecodeRoundTrip(t *testing.T) {
	f := func(cols []string) bool {
		// colSep and newline are reserved.
		row := make(Row, 0, len(cols))
		for _, c := range cols {
			clean := []byte(c)
			for i, b := range clean {
				if b == 0x1f || b == '\n' || b == '\t' {
					clean[i] = '_'
				}
			}
			row = append(row, string(clean))
		}
		if len(row) == 0 {
			return true
		}
		return reflect.DeepEqual(DecodeRow(EncodeRow(row)), row)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaIndex(t *testing.T) {
	s := Schema{"a", "b"}
	if i, err := s.Index("b"); err != nil || i != 1 {
		t.Fatalf("Index(b) = %d, %v", i, err)
	}
	if _, err := s.Index("zz"); err == nil {
		t.Fatal("unknown column did not error")
	}
}

func TestCondEval(t *testing.T) {
	cases := []struct {
		v    string
		cond Cond
		want bool
	}{
		{"5", Where("x", OpEq, "5"), true},
		{"5", Where("x", OpEq, "5.0"), true}, // numeric comparison
		{"5", Where("x", OpLt, "10"), true},
		{"10", Where("x", OpLt, "5"), false},
		{"9", Where("x", OpGt, "10"), false}, // numeric, not lexical
		{"abc", Where("x", OpGe, "abb"), true},
		{"abc", Where("x", OpNe, "abd"), true},
		{"hello world", Where("x", OpContains, "lo wo"), true},
		{"hello", Where("x", OpContains, "xyz"), false},
		{"hello", Where("x", OpContains, ""), true},
		{"3", Where("x", OpLe, "3"), true},
	}
	for _, c := range cases {
		if got := c.cond.eval(c.v); got != c.want {
			t.Errorf("eval(%q %s %q) = %v, want %v", c.v, c.cond.Op, c.cond.Val, got, c.want)
		}
	}
}

func TestAggNames(t *testing.T) {
	if Count().Name() != "count(*)" || Sum("x").Name() != "sum(x)" ||
		Avg("y").Name() != "avg(y)" || Min("z").Name() != "min(z)" || Max("w").Name() != "max(w)" {
		t.Fatal("aggregate names wrong")
	}
}

func TestCatalogCreateAndRead(t *testing.T) {
	e := newEnv(t)
	rows := salesRows(100, 1)
	tab := e.mustCreate(t, "sales", salesSchema, rows, 3)
	if len(tab.Files) != 3 {
		t.Fatalf("files = %d", len(tab.Files))
	}
	got, err := e.cat.ReadTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatal("round-tripped rows differ")
	}
	if _, err := e.cat.Create("sales", salesSchema, rows, 1); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := e.cat.Create("bad", Schema{"one"}, rows, 1); err == nil {
		t.Fatal("width mismatch accepted")
	}
	if _, err := e.cat.Lookup("missing"); err == nil {
		t.Fatal("missing table lookup succeeded")
	}
}

func TestCompileShapes(t *testing.T) {
	e := newEnv(t)
	e.mustCreate(t, "sales", salesSchema, salesRows(10, 1), 2)
	e.mustCreate(t, "regions", Schema{"name", "manager"}, []Row{{"east", "amy"}, {"west", "bob"}}, 1)

	cases := []struct {
		plan   *Plan
		stages []string
	}{
		{Scan("sales"), []string{"materialize"}},
		{Scan("sales").Filter(Where("amount", OpGt, "500")), []string{"materialize"}},
		{Scan("sales").GroupBy([]string{"region"}, Count()), []string{"groupby"}},
		{Scan("sales").Filter(Where("amount", OpGt, "500")).GroupBy([]string{"region"}, Count()), []string{"groupby"}},
		{Scan("sales").Join(Scan("regions"), "region", "name"), []string{"join"}},
		{Scan("sales").GroupBy([]string{"region"}, Sum("amount")).OrderBy("sum(amount)", true), []string{"groupby", "orderby"}},
		{Scan("sales").GroupBy([]string{"region"}, Count()).Filter(Where("count(*)", OpGt, "1")), []string{"groupby", "materialize"}},
	}
	for i, c := range cases {
		compiled, err := Compile(e.cat, fmt.Sprintf("t%d", i), c.plan)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		var kinds []string
		for _, st := range compiled.Stages {
			kinds = append(kinds, st.Kind)
		}
		if !reflect.DeepEqual(kinds, c.stages) {
			t.Errorf("case %d (%s): stages = %v, want %v", i, c.plan, kinds, c.stages)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	e := newEnv(t)
	e.mustCreate(t, "sales", salesSchema, salesRows(5, 1), 1)
	bad := []*Plan{
		Scan("nope"),
		Scan("sales").Filter(Where("missing", OpEq, "1")),
		Scan("sales").Project("missing"),
		Scan("sales").GroupBy(nil, Count()),
		Scan("sales").GroupBy([]string{"region"}),
		Scan("sales").GroupBy([]string{"region"}, Sum("missing")),
		Scan("sales").Join(Scan("nope"), "region", "name"),
	}
	for i, p := range bad {
		if _, err := Compile(e.cat, fmt.Sprintf("b%d", i), p); err == nil {
			t.Errorf("case %d compiled", i)
		}
	}
}

func TestGroupByAggregatesEndToEnd(t *testing.T) {
	e := newEnv(t)
	rows := salesRows(300, 7)
	e.mustCreate(t, "sales", salesSchema, rows, 4)
	res := e.exec(t, Scan("sales").GroupBy([]string{"region"},
		Count(), Sum("amount"), Min("amount"), Max("amount"), Avg("amount")))

	// Reference aggregation.
	type agg struct {
		n        int
		sum      float64
		min, max float64
	}
	want := map[string]*agg{}
	for _, r := range rows {
		a := want[r[1]]
		if a == nil {
			a = &agg{min: 1e18, max: -1e18}
			want[r[1]] = a
		}
		v, _ := strconv.ParseFloat(r[2], 64)
		a.n++
		a.sum += v
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(want))
	}
	for _, r := range res.Rows {
		a := want[r[0]]
		if a == nil {
			t.Fatalf("unexpected group %q", r[0])
		}
		if r[1] != strconv.Itoa(a.n) {
			t.Errorf("%s count = %s, want %d", r[0], r[1], a.n)
		}
		if r[2] != formatNum(a.sum) || r[3] != formatNum(a.min) || r[4] != formatNum(a.max) {
			t.Errorf("%s sum/min/max = %v, want %v/%v/%v", r[0], r[1:5], a.sum, a.min, a.max)
		}
		if r[5] != formatNum(a.sum/float64(a.n)) {
			t.Errorf("%s avg = %s", r[0], r[5])
		}
	}
}

func TestFilterProjectEndToEnd(t *testing.T) {
	e := newEnv(t)
	rows := salesRows(200, 3)
	e.mustCreate(t, "sales", salesSchema, rows, 3)
	res := e.exec(t, Scan("sales").
		Filter(Where("amount", OpGt, "500"), Where("region", OpEq, "east")).
		Project("id", "amount"))

	want := map[string]string{}
	for _, r := range rows {
		amt, _ := strconv.Atoi(r[2])
		if amt > 500 && r[1] == "east" {
			want[r[0]] = r[2]
		}
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(want))
	}
	for _, r := range res.Rows {
		if len(r) != 2 {
			t.Fatalf("projected width = %d", len(r))
		}
		if want[r[0]] != r[1] {
			t.Errorf("row %v unexpected", r)
		}
	}
}

func TestJoinEndToEnd(t *testing.T) {
	e := newEnv(t)
	sales := salesRows(120, 9)
	e.mustCreate(t, "sales", salesSchema, sales, 3)
	regions := []Row{{"east", "amy"}, {"west", "bob"}, {"north", "carol"}} // south unmatched
	e.mustCreate(t, "regions", Schema{"name", "manager"}, regions, 1)

	res := e.exec(t, Scan("sales").Join(Scan("regions"), "region", "name"))
	// Reference nested-loop join.
	count := 0
	managers := map[string]string{"east": "amy", "west": "bob", "north": "carol"}
	for _, s := range sales {
		if _, ok := managers[s[1]]; ok {
			count++
		}
	}
	if len(res.Rows) != count {
		t.Fatalf("join rows = %d, want %d", len(res.Rows), count)
	}
	for _, r := range res.Rows {
		if len(r) != len(salesSchema)+2 {
			t.Fatalf("join width = %d", len(r))
		}
		if r[1] != r[4] {
			t.Errorf("join key mismatch: %v", r)
		}
		if managers[r[1]] != r[5] {
			t.Errorf("wrong manager in %v", r)
		}
	}
}

func TestOrderByNumericAndString(t *testing.T) {
	e := newEnv(t)
	rows := []Row{{"3", "c"}, {"-7", "a"}, {"10", "b"}, {"0.5", "d"}}
	e.mustCreate(t, "t", Schema{"num", "name"}, rows, 1)

	asc := e.exec(t, Scan("t").OrderBy("num", false))
	var nums []string
	for _, r := range asc.Rows {
		nums = append(nums, r[0])
	}
	if !reflect.DeepEqual(nums, []string{"-7", "0.5", "3", "10"}) {
		t.Fatalf("ascending = %v", nums)
	}

	desc := e.exec(t, Scan("t").OrderBy("num", true))
	nums = nil
	for _, r := range desc.Rows {
		nums = append(nums, r[0])
	}
	if !reflect.DeepEqual(nums, []string{"10", "3", "0.5", "-7"}) {
		t.Fatalf("descending = %v", nums)
	}

	byName := e.exec(t, Scan("t").OrderBy("name", false))
	var names []string
	for _, r := range byName.Rows {
		names = append(names, r[1])
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("string order = %v", names)
	}
}

func TestMultiStageQueryEndToEnd(t *testing.T) {
	// The full Hive-style pipeline: filter → join → group-by → order-by,
	// four chained MapReduce jobs.
	e := newEnv(t)
	sales := salesRows(250, 11)
	e.mustCreate(t, "sales", salesSchema, sales, 4)
	regions := []Row{{"east", "amy"}, {"west", "bob"}, {"north", "carol"}, {"south", "dan"}}
	e.mustCreate(t, "regions", Schema{"name", "manager"}, regions, 1)

	plan := Scan("sales").
		Filter(Where("amount", OpGe, "300")).
		Join(Scan("regions"), "region", "name").
		GroupBy([]string{"manager"}, Sum("amount"), Count()).
		OrderBy("sum(amount)", true)
	res := e.exec(t, plan)
	if res.Stages != 3 {
		t.Fatalf("stages = %d, want 3 (join, groupby, orderby)", res.Stages)
	}

	// Reference computation.
	managerOf := map[string]string{}
	for _, r := range regions {
		managerOf[r[0]] = r[1]
	}
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, s := range sales {
		amt, _ := strconv.ParseFloat(s[2], 64)
		if amt >= 300 {
			m := managerOf[s[1]]
			sums[m] += amt
			counts[m]++
		}
	}
	if len(res.Rows) != len(sums) {
		t.Fatalf("result groups = %d, want %d", len(res.Rows), len(sums))
	}
	prev := 1e18
	for _, r := range res.Rows {
		m := r[0]
		got, _ := strconv.ParseFloat(r[1], 64)
		if got != sums[m] {
			t.Errorf("%s sum = %v, want %v", m, got, sums[m])
		}
		if r[2] != strconv.Itoa(counts[m]) {
			t.Errorf("%s count = %s, want %d", m, r[2], counts[m])
		}
		if got > prev {
			t.Errorf("descending order violated at %v", r)
		}
		prev = got
	}
	if res.Elapsed <= 0 {
		t.Fatal("no virtual time charged")
	}
}

func TestQueryHistoryReusedAcrossQueries(t *testing.T) {
	e := newEnv(t)
	e.mustCreate(t, "sales", salesSchema, salesRows(100, 2), 3)
	p := func() *Plan { return Scan("sales").GroupBy([]string{"region"}, Count()) }
	first := e.exec(t, p())
	second := e.exec(t, p())
	if len(first.Winners) != 1 || len(second.Winners) != 1 {
		t.Fatalf("winners = %v / %v", first.Winners, second.Winners)
	}
	// Same stage kind → the second query's group-by stage is pre-decided
	// from history and must pick the same winner.
	if first.Winners[0] != second.Winners[0] {
		t.Fatalf("winner changed: %v vs %v", first.Winners[0], second.Winners[0])
	}
	if second.Elapsed > first.Elapsed*1.3 {
		t.Errorf("history-guided run slower: %.2fs vs %.2fs", second.Elapsed, first.Elapsed)
	}
}

func TestQueryDeterminism(t *testing.T) {
	run := func() ([]Row, float64) {
		e := newEnv(t)
		e.mustCreate(t, "sales", salesSchema, salesRows(150, 4), 3)
		res := e.exec(t, Scan("sales").GroupBy([]string{"region"}, Sum("amount")).OrderBy("sum(amount)", true))
		return res.Rows, res.Elapsed
	}
	r1, t1 := run()
	r2, t2 := run()
	if !reflect.DeepEqual(r1, r2) || t1 != t2 {
		t.Fatalf("nondeterministic query execution: %v/%v vs %v/%v", r1, t1, r2, t2)
	}
}

func TestSortKeyOrderPreserving(t *testing.T) {
	f := func(a, b float64) bool {
		ka := string(sortKey(formatNum(a), false))
		kb := string(sortKey(formatNum(b), false))
		// formatNum may round; compare on the parsed-back values.
		pa, _ := numericStr(formatNum(a))
		pb, _ := numericStr(formatNum(b))
		switch {
		case pa < pb:
			return ka < kb
		case pa > pb:
			return ka > kb
		default:
			return ka == kb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// The hand-appended encodings are byte-for-byte the ones they replaced:
// "n%016x" for numeric sort keys, and count,sum,min,max with the one
// observation formatted three times (shortest round-trip form) for aggregate
// states. Stage outputs,
// memo digests and every query golden depend on these bytes.
func TestEncodingsMatchTheirFormattedForms(t *testing.T) {
	key := func(v float64, desc bool) bool {
		bits := math.Float64bits(v)
		if v >= 0 {
			bits |= 1 << 63
		} else {
			bits = ^bits
		}
		if desc {
			bits = ^bits
		}
		return string(sortKey(strconv.FormatFloat(v, 'g', -1, 64), desc)) == fmt.Sprintf("n%016x", bits)
	}
	if err := quick.Check(key, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0, 1, -1, 1e-300, -1e-300, 255.5} { // leading zeros either way
		if !key(v, false) || !key(v, true) {
			t.Fatalf("sortKey(%g) lost its zero padding", v)
		}
	}
	aggs := []Agg{Count(), Sum("x"), Min("y"), Avg("z")}
	state := func(x, y float64) bool {
		row := Row{formatNum(x), formatNum(y), "not a number"}
		var parts []string
		for i, a := range aggs {
			switch v, ok := numericStr(row[max(i-1, 0)]); {
			case a.Kind == AggCount:
				parts = append(parts, "1,0,0,0")
			case !ok:
				parts = append(parts, "0,0,0,0")
			default:
				parts = append(parts, "1,"+formatPartial(v)+","+formatPartial(v)+","+formatPartial(v))
			}
		}
		enc := EncodeRow(row)
		return string(appendRowStates(nil, enc, splitFields(enc, nil), []int{0, 0, 1, 2}, aggs, nil)) == strings.Join(parts, colSep)
	}
	if err := quick.Check(state, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
