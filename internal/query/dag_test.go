package query

import (
	"fmt"
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
	"mrapid/internal/memo"
	"mrapid/internal/metrics"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

// newDAGEnv is the test env on a cluster of the given size, with a metrics
// registry and a runner that overlaps independent stages.
func newDAGEnv(t *testing.T, workers int) *env {
	t.Helper()
	eng := sim.NewEngine()
	cluster, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: workers, Racks: 2})
	if err != nil {
		t.Fatal(err)
	}
	params := costmodel.Default()
	dfs := hdfs.New(eng, cluster, params.HDFSBlockBytes, params.Replication, 5)
	rm := yarn.NewRM(eng, cluster, params, core.NewDPlusScheduler(core.FullDPlus()))
	rm.Start()
	rt := mapreduce.NewRuntime(eng, cluster, dfs, rm, params)
	t.Cleanup(rt.Close)
	rt.Reg = metrics.New()
	fw := core.NewFramework(rt, 3, core.FullUPlus())
	ready := false
	eng.After(0, func() { fw.Start(func() { ready = true }) })
	eng.RunUntil(sim.Time(60 * time.Second))
	if !ready {
		t.Fatal("framework not ready")
	}
	// The DAG runner is the intermediate store's heaviest user: at teardown
	// every byte budget must equal the sum of its resident copies.
	t.Cleanup(func() {
		if err := fw.CheckResidency(); err != nil {
			t.Error(err)
		}
	})
	cat := NewCatalog(dfs, cluster)
	dag, err := NewDAGRunner(fw, nil, cat)
	if err != nil {
		t.Fatal(err)
	}
	return &env{eng: eng, rm: rm, cat: cat, run: dag, tables: map[string]refTable{}}
}

// execSequential runs a plan on the same runner one stage at a time.
func (e *env) execSequential(t *testing.T, p *Plan) *Result {
	t.Helper()
	e.run.Sequential = true
	defer func() { e.run.Sequential = false }()
	return e.exec(t, p)
}

// canonRows renders rows order-independently for cross-runner comparison
// (multi-reduce outputs spread rows over part files in partition order).
func canonRows(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(out)
	return out
}

// returnsRows builds a deterministic second table for join workloads.
func returnsRows(n int) []Row {
	regions := []string{"east", "west", "north", "south"}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			strconv.Itoa(i),         // rid
			regions[i%len(regions)], // region
			strconv.Itoa(10 + i%50), // refund
		}
	}
	return rows
}

var returnsSchema = Schema{"rid", "region", "refund"}

// branchyPlan joins two independently aggregated subtrees — the DAG shape
// with genuinely parallel branches (each group-by is a shuffle stage).
func branchyPlan() *Plan {
	return Scan("sales").
		Filter(Where("amount", OpGt, "200")).
		GroupBy([]string{"region"}, Sum("amount"), Count()).
		Join(Scan("returns").GroupBy([]string{"region"}, Sum("refund")), "region", "region").
		OrderBy("sum(amount)", true)
}

func TestCompileDAGEdges(t *testing.T) {
	e := newDAGEnv(t, 4)
	e.mustCreate(t, "sales", salesSchema, salesRows(200, 21), 3)
	e.mustCreate(t, "returns", returnsSchema, returnsRows(80), 2)

	compiled, err := Compile(e.cat, "edges", branchyPlan())
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, st := range compiled.Stages {
		kinds = append(kinds, st.Kind)
	}
	if !reflect.DeepEqual(kinds, []string{"groupby", "groupby", "join", "orderby"}) {
		t.Fatalf("stage kinds = %v", kinds)
	}
	if len(compiled.Stages[0].Deps) != 0 || len(compiled.Stages[1].Deps) != 0 {
		t.Fatalf("group-by branches must be dependency-free: %v / %v",
			compiled.Stages[0].Deps, compiled.Stages[1].Deps)
	}
	if !reflect.DeepEqual(compiled.Stages[2].Deps, []int{0, 1}) {
		t.Fatalf("join deps = %v, want [0 1]", compiled.Stages[2].Deps)
	}
	if !reflect.DeepEqual(compiled.Stages[3].Deps, []int{2}) {
		t.Fatalf("orderby deps = %v, want [2]", compiled.Stages[3].Deps)
	}
	if compiled.Stages[3].Spec.NumReduces != 1 {
		t.Fatalf("orderby reduces = %d, want 1 (global order)", compiled.Stages[3].Spec.NumReduces)
	}
	// Every stage but the result producer routes through the store.
	for _, st := range compiled.Stages[:3] {
		if !st.Spec.IntermediateOutput {
			t.Errorf("stage %d (%s) not marked intermediate", st.ID, st.Kind)
		}
	}
	if compiled.Stages[3].Spec.IntermediateOutput {
		t.Error("result stage marked intermediate; the result must land in HDFS")
	}
	if compiled.Stages[0].EstInBytes <= 0 {
		t.Error("scan-fed stage has no input-size estimate")
	}
}

func TestCompileReduceCountHeuristic(t *testing.T) {
	e := newDAGEnv(t, 4)
	e.mustCreate(t, "sales", salesSchema, salesRows(300, 22), 3)

	// ~300 rows ≈ 6 KB: a 1 KiB target wants ≥6 reduces, capped at 4.
	opts := CompileOptions{TargetBytesPerReduce: 1 << 10, MaxReduces: 4}
	compiled, err := CompileWith(e.cat, "rc", Scan("sales").GroupBy([]string{"region"}, Count()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := compiled.Stages[0].Spec.NumReduces; got != 4 {
		t.Fatalf("group-by reduces = %d, want 4 (capped)", got)
	}
	// Default options keep tiny tables single-reduce.
	compiled, err = Compile(e.cat, "rc2", Scan("sales").GroupBy([]string{"region"}, Count()))
	if err != nil {
		t.Fatal(err)
	}
	if got := compiled.Stages[0].Spec.NumReduces; got != 1 {
		t.Fatalf("default reduces = %d, want 1", got)
	}
}

func TestCompileNoInteriorMaterialize(t *testing.T) {
	e := newDAGEnv(t, 4)
	e.mustCreate(t, "sales", salesSchema, salesRows(50, 23), 2)
	e.mustCreate(t, "returns", returnsSchema, returnsRows(20), 1)

	plans := []*Plan{
		Scan("sales"),
		Scan("sales").Filter(Where("amount", OpGt, "500")).Project("id"),
		branchyPlan(),
		Scan("sales").Filter(Where("region", OpEq, "east")).
			Join(Scan("returns").Filter(Where("refund", OpGt, "20")), "region", "region"),
		Scan("sales").GroupBy([]string{"region"}, Count()).Filter(Where("count(*)", OpGt, "1")),
	}
	for i, p := range plans {
		compiled, err := Compile(e.cat, fmt.Sprintf("nm%d", i), p)
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		for j, st := range compiled.Stages {
			if st.Kind == "materialize" && j != len(compiled.Stages)-1 {
				t.Errorf("plan %d: interior materialize at stage %d (map-only work must fuse into its consumer)", i, j)
			}
		}
	}
}

// TestDAGMatchesReference is the golden row-identity check: across worker
// counts, for branch-parallel joins, empty-input stages, and multi-reduce
// partitioned intermediates, the rows of the overlapping schedule and of the
// one-stage-at-a-time schedule both equal the reference evaluator's — which
// shares nothing with Compile, so a compiler bug cannot pass on both sides.
func TestDAGMatchesReference(t *testing.T) {
	for _, workers := range []int{3, 5} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := newDAGEnv(t, workers)
			e.mustCreate(t, "sales", salesSchema, salesRows(300, 31), 4)
			e.mustCreate(t, "returns", returnsSchema, returnsRows(100), 2)

			cases := []struct {
				name string
				plan func() *Plan
				opts CompileOptions
			}{
				{"branchy-join", branchyPlan, CompileOptions{}},
				// Both branches filtered to nothing: the group-bys run on
				// real input and produce empty tables, the join and order-by
				// short-circuit as empty-input stages.
				{"empty-branches", func() *Plan {
					return Scan("sales").
						Filter(Where("amount", OpGt, "99999")).
						GroupBy([]string{"region"}, Count()).
						Join(Scan("returns").Filter(Where("refund", OpGt, "99999")).
							GroupBy([]string{"region"}, Count()), "region", "region").
						OrderBy("region", false)
				}, CompileOptions{}},
				// Tiny reduce target: multi-reduce partitioned
				// intermediates under both schedules.
				{"multi-reduce", branchyPlan, CompileOptions{TargetBytesPerReduce: 1 << 10}},
			}
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					e.run.Opts = c.opts
					seq := e.execSequential(t, c.plan())
					checkAgainstReference(t, e.tables, c.plan(), "one stage at a time", seq)
					if seq.MaxConcurrent != 1 {
						t.Fatalf("sequential run had %d stages in flight", seq.MaxConcurrent)
					}
					dag := e.exec(t, c.plan())
					checkAgainstReference(t, e.tables, c.plan(), "dag", dag)
					if len(dag.Winners) != dag.Stages {
						t.Fatalf("winners = %d, stages = %d", len(dag.Winners), dag.Stages)
					}
				})
			}
		})
	}
}

func TestDAGSkipsEmptyStages(t *testing.T) {
	e := newDAGEnv(t, 4)
	e.mustCreate(t, "sales", salesSchema, salesRows(100, 33), 2)
	res := e.exec(t, Scan("sales").
		Filter(Where("amount", OpGt, "99999")).
		GroupBy([]string{"region"}, Count()).
		OrderBy("region", false))
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v, want none", res.Rows)
	}
	skipped := 0
	for _, w := range res.Winners {
		if w == StageSkipped {
			skipped++
		}
	}
	// The group-by reads real input (and emits nothing); the order-by has
	// nothing to read and must short-circuit.
	if skipped != 1 {
		t.Fatalf("skipped stages = %d (winners %v), want 1", skipped, res.Winners)
	}
}

// TestDAGBranchOverlap proves the point of the scheduler: the two group-by
// branches of a join run concurrently (D+ directly, so the admission window
// isn't double-charged by a first-sight race).
func TestDAGBranchOverlap(t *testing.T) {
	e := newDAGEnv(t, 4)
	e.mustCreate(t, "sales", salesSchema, salesRows(400, 35), 4)
	e.mustCreate(t, "returns", returnsSchema, returnsRows(200), 2)
	e.run.Mode = ViaDPlus
	res := e.exec(t, branchyPlan())
	if res.MaxConcurrent < 2 {
		t.Fatalf("MaxConcurrent = %d; the join's input branches never overlapped", res.MaxConcurrent)
	}
	if res.Stages != 4 {
		t.Fatalf("stages = %d, want 4", res.Stages)
	}
}

// TestDAGIntermediatesAvoidHDFS checks the transport rewiring: interior
// stage outputs land in the intermediate store (counted as HDFS bytes
// avoided), and only the result stage writes to HDFS.
func TestDAGIntermediatesAvoidHDFS(t *testing.T) {
	e := newDAGEnv(t, 4)
	e.mustCreate(t, "sales", salesSchema, salesRows(300, 37), 3)
	e.mustCreate(t, "returns", returnsSchema, returnsRows(120), 2)
	e.run.Mode = ViaDPlus
	rt := e.run.FW.RT
	before := rt.DFS.BytesWritten
	res := e.exec(t, branchyPlan())
	if len(res.Rows) == 0 {
		t.Fatal("no result rows")
	}
	store := rt.Intermediates
	if store == nil || store.HDFSBytesAvoided == 0 {
		t.Fatal("no intermediate bytes avoided HDFS")
	}
	// Interior intermediates are released at query end; the result table is
	// the only surviving output.
	for _, f := range res.Table.Files {
		if store.Has(f) {
			t.Fatalf("result file %s lives in the store; results must persist in HDFS", f)
		}
		if !rt.DFS.Exists(f) {
			t.Fatalf("result file %s missing from HDFS", f)
		}
	}
	if rt.DFS.BytesWritten == before {
		t.Fatal("result stage wrote nothing to HDFS")
	}
}

// TestDAGNodeCrashChaos kills a worker (with restart) while the DAG query
// runs: unreplicated intermediates die with it, lineage recovery recomputes
// them, and the rows still match the reference.
func TestDAGNodeCrashChaos(t *testing.T) {
	e := newDAGEnv(t, 4)
	e.mustCreate(t, "sales", salesSchema, salesRows(400, 39), 4)
	e.mustCreate(t, "returns", returnsSchema, returnsRows(150), 2)

	// A fault-free run first warms the history.
	checkAgainstReference(t, e.tables, branchyPlan(), "fault-free", e.execSequential(t, branchyPlan()))

	rt := e.run.FW.RT
	victim := rt.Cluster.Workers()[1].Name
	for _, at := range []time.Duration{3 * time.Second, 8 * time.Second} {
		e.eng.After(0, func() {
			if err := rt.ScheduleNodeFaults([]mapreduce.NodeFault{
				{Node: victim, At: at, RestartAfter: 15 * time.Second},
			}); err != nil {
				t.Error(err)
			}
		})
		checkAgainstReference(t, e.tables, branchyPlan(), fmt.Sprintf("crash at %s", at), e.exec(t, branchyPlan()))
	}
}

// TestDAGLineageRecovery kills the node holding a committed group-by
// intermediate just before the join consumes it: the read surfaces
// ErrIntermediateLost, the runner reverts the producer from lineage, and the
// query still answers correctly — with branches overlapping and one stage at
// a time alike.
func TestDAGLineageRecovery(t *testing.T) {
	for _, sequential := range []bool{false, true} {
		t.Run(fmt.Sprintf("sequential=%v", sequential), func(t *testing.T) {
			testLineageRecovery(t, sequential)
		})
	}
}

func testLineageRecovery(t *testing.T, sequential bool) {
	e := newDAGEnv(t, 4)
	e.run.Sequential = sequential
	e.mustCreate(t, "sales", salesSchema, salesRows(400, 41), 4)
	e.mustCreate(t, "returns", returnsSchema, returnsRows(150), 2)
	e.run.Mode = ViaDPlus
	rt := e.run.FW.RT

	// The first DAG query is dq0001; its left group-by writes stage-0.
	target := "/query/dq0001/stage-0/part-00000"
	killed := false
	var watch func()
	watch = func() {
		if killed {
			return
		}
		if st := rt.Intermediates; st != nil && st.Has(target) {
			if splits, _ := rt.Splits([]string{target}); len(splits) > 0 {
				n := splits[0].Hosts[0] // the producer that holds the file
				killed = true
				// Let the producing job finish its commit handshake, then
				// take the holder down (restarting later so capacity
				// returns): the consuming join finds a dead node's
				// intermediate and must recompute it from lineage.
				e.eng.After(2*time.Second, func() {
					n.Fail()
					e.eng.After(15*time.Second, n.Restart)
				})
				return
			}
		}
		e.eng.After(100*time.Millisecond, watch)
	}
	e.eng.After(0, watch)

	res := e.exec(t, branchyPlan())
	if !killed {
		t.Fatal("no intermediate ever appeared in the store")
	}
	if res.Recoveries == 0 {
		t.Fatal("holder death did not trigger lineage recovery")
	}

	checkAgainstReference(t, e.tables, branchyPlan(), "recovered dag", res)
}

// --- Satellite regressions -------------------------------------------------

// TestSortKeyDescendingStrings is the satellite-1 regression: descending
// string keys must order exactly opposite to ascending lexical order,
// including prefix pairs ("abc" before "ab" when descending). The pre-fix
// encoding (byte inversion, no terminator) sorted prefixes first both ways.
func TestSortKeyDescendingStrings(t *testing.T) {
	sanitize := func(s string) (string, bool) {
		b := []byte(s)
		for i, ch := range b {
			if ch == '\t' || ch == '\n' || ch == 0x1f || ch == 0x00 {
				b[i] = '_'
			}
		}
		out := string(b)
		if _, isNum := numericStr(out); isNum {
			return "", false // numerics take the numeric key path
		}
		return out, true
	}
	check := func(vals []string) error {
		want := append([]string(nil), vals...)
		sort.Slice(want, func(i, j int) bool { return want[i] > want[j] })
		got := append([]string(nil), vals...)
		sort.Slice(got, func(i, j int) bool {
			return string(sortKey(got[i], true)) < string(sortKey(got[j], true))
		})
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("descending sort-key order %q != reference %q", got, want)
		}
		return nil
	}
	// The pre-fix code fails this immediately: inv("ab") is a prefix of
	// inv("abc") and sorts first, but descending order puts "abc" first.
	if err := check([]string{"ab", "abc", "abcd", "b", ""}); err != nil {
		t.Fatal(err)
	}
	f := func(raw []string) bool {
		var vals []string
		for _, s := range raw {
			if v, ok := sanitize(s); ok {
				vals = append(vals, v)
			}
		}
		return check(vals) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDegenerateTables is the satellite-2 regression: zero-file and
// non-part-file tables produce descriptive errors instead of index panics.
func TestDegenerateTables(t *testing.T) {
	e := newDAGEnv(t, 4)

	if err := e.cat.Register(&Table{Name: "ghost", Schema: Schema{"a"}}); err == nil {
		t.Fatal("Register accepted a zero-file table")
	}

	// A zero-file table smuggled past Register (e.g. built by hand) must
	// fail compilation with an error, not panic in endsAtStage.
	e.cat.tables["ghost"] = &Table{Name: "ghost", Schema: Schema{"a"}}
	if _, err := Compile(e.cat, "g", Scan("ghost")); err == nil {
		t.Fatal("Compile of a zero-file table did not error")
	}

	if _, err := outputBase(&Table{Name: "t"}); err == nil {
		t.Fatal("outputBase of a file-less table did not error")
	}
	if _, err := outputBase(&Table{Name: "t", Files: []string{"/data/blob"}}); err == nil {
		t.Fatal("outputBase of a non-part file did not error")
	}
	if base, err := outputBase(&Table{Name: "t", Files: []string{"/query/q/stage-0/part-00000"}}); err != nil || base != "/query/q/stage-0" {
		t.Fatalf("outputBase = %q, %v", base, err)
	}
}

// TestCatalogRejectsReservedBytes is the satellite-3 regression: values
// carrying framing bytes are rejected at the catalog boundary, and rows
// whose width disagrees with the schema fail ReadTable instead of silently
// shifting columns.
func TestCatalogRejectsReservedBytes(t *testing.T) {
	e := newDAGEnv(t, 4)
	for _, bad := range []string{"a\tb", "a\nb", "a\x1fb", "a\x00b"} {
		if _, err := e.cat.Create("t"+strconv.Itoa(len(bad)), Schema{"x"}, []Row{{bad}}, 1); err == nil {
			t.Errorf("Create accepted reserved byte in %q", bad)
		}
	}

	// A row wider than the schema (e.g. a stray separator written by hand)
	// must fail loudly on read.
	node := e.run.FW.RT.Cluster.Workers()[0]
	if _, err := e.run.FW.RT.DFS.PutInstant("/warehouse/corrupt/part-00000",
		[]byte("a\x1fb\x1fc\n"), node); err != nil {
		t.Fatal(err)
	}
	wide := &Table{Name: "corrupt", Schema: Schema{"x", "y"}, Files: []string{"/warehouse/corrupt/part-00000"}}
	if err := e.cat.Register(wide); err != nil {
		t.Fatal(err)
	}
	if _, err := e.cat.ReadTable(wide); err == nil {
		t.Fatal("ReadTable accepted a row wider than the schema")
	}
}

// TestAggSkipsNonNumeric is the satellite-4 regression: non-numeric values
// no longer aggregate as silent zeros — they are skipped, counted, and a
// group with no parsable values reports NULL.
func TestAggSkipsNonNumeric(t *testing.T) {
	e := newDAGEnv(t, 4)
	rows := []Row{
		{"1", "east", "100", "c1"},
		{"2", "east", "N/A", "c2"},
		{"3", "east", "300", "c3"},
		{"4", "west", "oops", "c4"},
		{"5", "west", "bad", "c5"},
	}
	e.mustCreate(t, "sales", salesSchema, rows, 1)
	e.run.Mode = ViaDPlus // single mode, single attempt: exact skip counts
	res := e.exec(t, Scan("sales").GroupBy([]string{"region"},
		Count(), Sum("amount"), Min("amount"), Max("amount"), Avg("amount")))

	byRegion := map[string]Row{}
	for _, r := range res.Rows {
		byRegion[r[0]] = r
	}
	east := byRegion["east"]
	if east == nil || east[1] != "3" || east[2] != "400" || east[3] != "100" || east[4] != "300" || east[5] != "200" {
		t.Fatalf("east = %v; want count 3 over all rows, sum/min/max/avg over the 2 numeric ones", east)
	}
	west := byRegion["west"]
	if west == nil || west[1] != "2" {
		t.Fatalf("west = %v; count must include unparsable rows", west)
	}
	for i, want := range []string{"NULL", "NULL", "NULL", "NULL"} {
		if west[2+i] != want {
			t.Fatalf("west agg %d = %q, want NULL (every value unparsable); row %v", i, west[2+i], west)
		}
	}
	// 3 bad values × 4 value-reading aggregates (count never parses).
	if res.AggParseErrors != 12 {
		t.Fatalf("AggParseErrors = %d, want 12", res.AggParseErrors)
	}
	if got := e.run.FW.RT.Reg.Get("query_agg_parse_errors"); got != 12 {
		t.Fatalf("query_agg_parse_errors metric = %d, want 12", got)
	}
}

// TestDAGCrossQueryMemoReuse is the query-layer hook end to end: with the
// cross-job memo cache attached, a repeat of an identical query is served
// entirely from cache (every stage ModeMemo, zero containers launched,
// identical rows); a *different* query sharing the aggregated-sales subtree
// reuses that one materialized stage; mutating a base table invalidates the
// whole lineage and forces fresh execution.
func TestDAGCrossQueryMemoReuse(t *testing.T) {
	e := newDAGEnv(t, 4)
	rt := e.run.FW.RT
	reg := rt.Reg
	e.rm.Reg = reg
	e.run.FW.Memo = memo.New(reg, rt.Cluster.Workers(), memo.Config{})

	e.mustCreate(t, "sales", salesSchema, salesRows(200, 21), 3)
	e.mustCreate(t, "returns", returnsSchema, returnsRows(80), 2)

	launched := func() int64 {
		var n int64
		for name, v := range reg.Counters() {
			if strings.HasPrefix(name, "yarn_containers_launched_total") {
				n += v
			}
		}
		return n
	}

	res1 := e.exec(t, branchyPlan())
	for _, w := range res1.Winners {
		if w == core.ModeMemo {
			t.Fatalf("cold query served from cache: %v", res1.Winners)
		}
	}
	if reg.Get("memo_misses_total") != int64(res1.Stages) {
		t.Fatalf("cold query misses = %d, want one per stage (%d)",
			reg.Get("memo_misses_total"), res1.Stages)
	}
	// These tiny stages all race to U+ wins inside pooled AMs, so the cold
	// count may be zero; the repeat must not add launches of any kind —
	// not even AM-pool replenishment.
	base := launched()

	// Identical repeat: every stage is a hit, no containers move.
	res2 := e.exec(t, branchyPlan())
	for i, w := range res2.Winners {
		if w != core.ModeMemo {
			t.Fatalf("repeat stage %d winner = %q, want memo (%v)", i, w, res2.Winners)
		}
	}
	if reg.Get("memo_hits_total") != int64(res1.Stages) {
		t.Fatalf("repeat hits = %d, want %d", reg.Get("memo_hits_total"), res1.Stages)
	}
	if got := launched(); got != base {
		t.Fatalf("repeat query launched %d containers", got-base)
	}
	if !reflect.DeepEqual(canonRows(res1.Rows), canonRows(res2.Rows)) {
		t.Fatal("memo-served query rows differ from the fresh run")
	}

	// A different query over the same aggregated-sales subtree: the shared
	// group-by stage is served from cache, the new downstream work runs.
	shared := Scan("sales").
		Filter(Where("amount", OpGt, "200")).
		GroupBy([]string{"region"}, Sum("amount"), Count()).
		OrderBy("count(*)", false)
	res3 := e.exec(t, shared)
	if res3.Winners[0] != core.ModeMemo {
		t.Fatalf("shared subtree stage winner = %q, want memo (%v)", res3.Winners[0], res3.Winners)
	}
	if res3.Winners[len(res3.Winners)-1] == core.ModeMemo {
		t.Fatalf("novel order-by stage cannot be a cache hit (%v)", res3.Winners)
	}

	// Mutate a base-table block: the write generation moves, every entry
	// over sales is stale, and the repeat runs fresh end to end.
	sales, err := e.cat.Lookup("sales")
	if err != nil {
		t.Fatal(err)
	}
	old, err := rt.DFS.Contents(sales.Files[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.DFS.OverwriteInstant(sales.Files[0], old, nil); err != nil {
		t.Fatal(err)
	}
	// Invalidation is dependency-precise: the sales group-by (0), the join
	// (2), and the order-by (3) all fold the mutated table into their
	// lineage and must run fresh; the returns group-by (1) reads an
	// untouched table and legitimately still hits.
	res4 := e.exec(t, branchyPlan())
	for _, i := range []int{0, 2, 3} {
		if res4.Winners[i] == core.ModeMemo {
			t.Fatalf("post-mutation stage %d served from cache (%v)", i, res4.Winners)
		}
	}
	if res4.Winners[1] != core.ModeMemo {
		t.Fatalf("untouched returns subtree should still hit (%v)", res4.Winners)
	}
	if !reflect.DeepEqual(canonRows(res1.Rows), canonRows(res4.Rows)) {
		t.Fatal("identical-bytes overwrite changed the result rows")
	}
}

// TestMapCacheKeepsFilteredGroupBysApart: every group-by stage the compiler
// emits shares the JobKey "query-groupby" and one map-closure symbol, so two
// queries grouping the same table files under different filters used to
// collide in the host-side MapCache — the second was served the first one's
// map output and returned its rows. With the stage's plan signature in the
// cache identity each query gets its own rows, and an identical repeat still
// hits.
func TestMapCacheKeepsFilteredGroupBysApart(t *testing.T) {
	plans := []*Plan{
		Scan("sales").Filter(Where("amount", OpGt, "200")).GroupBy([]string{"region"}, Sum("amount"), Count()),
		Scan("sales").Filter(Where("amount", OpGt, "600")).GroupBy([]string{"region"}, Sum("amount"), Count()),
	}
	run := func(cache *mapreduce.MapCache) [][]string {
		e := newDAGEnv(t, 4)
		e.run.FW.RT.MapCache = cache
		e.mustCreate(t, "sales", salesSchema, salesRows(200, 21), 3)
		var out [][]string
		for _, p := range plans {
			out = append(out, canonRows(e.exec(t, p).Rows))
		}
		return out
	}
	want := run(nil)
	if reflect.DeepEqual(want[0], want[1]) {
		t.Fatal("the two filters select the same rows; the test cannot tell a collision")
	}
	cache := mapreduce.NewMapCache(1 << 28)
	if got := run(cache); !reflect.DeepEqual(got, want) {
		t.Fatalf("with the MapCache attached:\n got  %v\n want %v", got, want)
	}
	hits := cache.Hits()
	if got := run(cache); !reflect.DeepEqual(got, want) {
		t.Fatalf("repeat over a warm MapCache:\n got  %v\n want %v", got, want)
	}
	if cache.Hits() == hits {
		t.Fatal("an identical repeat never hit the MapCache")
	}
}
