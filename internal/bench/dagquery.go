package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"mrapid/internal/core"
	"mrapid/internal/mapreduce"
	"mrapid/internal/query"
)

// dagQueryCount is how many queries the workload submits, dagQueryGap the
// arrival spacing between them (an ad-hoc Hive-style stream, not a burst:
// a burst saturates the 4-worker testbed and makes makespan purely
// work-bound, hiding scheduling differences), and dagQueryPool the AM pool
// size every query stream runs on.
const (
	dagQueryCount = 3
	dagQueryPool  = 6
)

const dagQueryGap = 6 * time.Second

// WarehouseQuery is the join-heavy query shape every query stream runs over
// the sales/returns warehouse: two independent group-by branches (the part a
// DAG scheduler can overlap) feeding a join and an order-by. Grouping is on
// "cell", a high-cardinality key (≈ one cell per 8 rows), so the group-by
// outputs and the joined table are real intermediate data, not a handful of
// summary rows.
func WarehouseQuery(minAmount, minRefund int, desc bool) *query.Plan {
	sales := query.Scan("sales").
		Filter(query.Where("amount", query.OpGt, strconv.Itoa(minAmount))).
		GroupBy([]string{"cell"}, query.Sum("amount"), query.Count())
	returns := query.Scan("returns").
		Filter(query.Where("refund", query.OpGt, strconv.Itoa(minRefund))).
		GroupBy([]string{"cell"}, query.Sum("refund"))
	return sales.Join(returns, "cell", "cell").OrderBy("sum(amount)", desc)
}

// dagQueryPlan builds the i-th query of the workload. Thresholds vary per
// query so the three result tables differ.
func dagQueryPlan(i int) *query.Plan { return WarehouseQuery(100+60*i, 20+10*i, true) }

// dagQueryTables materializes the synthetic sales/returns warehouse. Row
// counts scale with Options.Scale; generation is deterministic in the seed.
func dagQueryTables(cat *query.Catalog, o Options) error {
	rng := rand.New(rand.NewSource(o.Seed))
	nSales := int(20000 * o.Scale)
	if nSales < 240 {
		nSales = 240
	}
	nReturns := nSales / 2
	cells := nSales / 8
	sales := make([]query.Row, nSales)
	for i := range sales {
		sales[i] = query.Row{
			strconv.Itoa(i),
			fmt.Sprintf("c%05d", rng.Intn(cells)),
			strconv.Itoa(rng.Intn(1000)),
		}
	}
	if _, err := cat.Create("sales", query.Schema{"id", "cell", "amount"}, sales, 4); err != nil {
		return err
	}
	returns := make([]query.Row, nReturns)
	for i := range returns {
		returns[i] = query.Row{
			strconv.Itoa(i),
			fmt.Sprintf("c%05d", rng.Intn(cells)),
			strconv.Itoa(rng.Intn(200)),
		}
	}
	_, err := cat.Create("returns", query.Schema{"rid", "cell", "refund"}, returns, 3)
	return err
}

// canonQueryRows canonicalizes a result for cross-mode comparison: encoded
// rows, sorted (part-file order is scheduling-dependent; content is not).
func canonQueryRows(rows []query.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(out)
	return out
}

// QueryStream is a stream of query plans for RunQueryStream.
type QueryStream struct {
	Plans []*query.Plan
	// Gap spaces the arrivals a fixed interval apart (an ad-hoc Hive-style
	// stream). AfterPrevious ignores it and submits each plan when the one
	// before it has its rows back, so a query sees its predecessors'
	// committed outputs.
	Gap           time.Duration
	AfterPrevious bool
	// Sequential keeps at most one stage of each query in flight: the
	// stage-chain baseline the DAG scheduler is measured against.
	Sequential bool
}

// QueryStreamResult is what one stream measured.
type QueryStreamResult struct {
	Makespan    float64         // virtual s, first arrival to last query done
	MeanLatency float64         // mean per-query latency, submission to rows back
	Results     []*query.Result // per query

	HDFSBytes   int64                        // written to HDFS by the queries
	Store       *mapreduce.IntermediateStore // what stayed out of HDFS
	SlotSeconds float64                      // the query server's admission-cost × time integral
	MemoHits    int64                        // memo_hits_total at end of run
	MemoMisses  int64
}

// RunQueryStream generates the sales/returns warehouse on a fresh simulation
// of setup and drives the plans through the DAG runner, every stage a plain
// D+ job, so streams differ in scheduling and caching only, never in race
// outcomes. The first query to fail fails the stream.
func RunQueryStream(setup ClusterSetup, qs QueryStream, o Options) (*QueryStreamResult, error) {
	o = o.normalized()
	if len(qs.Plans) == 0 {
		return nil, fmt.Errorf("bench: query stream has no plans")
	}
	// The pool is sized so the DAG runner can overlap every in-flight query's
	// two independent branches; the sequential baseline never comes close to
	// using it.
	v := VariantDPlus()
	v.PoolSize = dagQueryPool
	v.Server = &core.JobServerConfig{Policy: core.PolicyWeightedFair}
	env, err := NewEnv(o.Apply(setup), v)
	if err != nil {
		return nil, err
	}
	env.EnableObservability(1 << 16)
	cat := query.NewCatalog(env.DFS, env.Cluster)
	if err := dagQueryTables(cat, o); err != nil {
		return nil, err
	}
	dr, err := query.NewDAGRunner(env.FW, env.Srv, cat)
	if err != nil {
		return nil, err
	}
	dr.Mode = query.ViaDPlus
	dr.Sequential = qs.Sequential

	n := len(qs.Plans)
	out := &QueryStreamResult{Results: make([]*query.Result, n)}
	written := env.DFS.BytesWritten
	start := env.Eng.Now()
	finished := 0
	var runErr error
	var submit func(i int)
	submit = func(i int) {
		submitted := env.Eng.Now()
		dr.Run(qs.Plans[i], func(res *query.Result, err error) {
			if err != nil {
				if runErr == nil {
					runErr = fmt.Errorf("bench: query %d failed: %w", i, err)
				}
				env.RM.Stop()
				return
			}
			out.Results[i] = res
			out.MeanLatency += env.Eng.Now().Sub(submitted).Seconds()
			out.Makespan = env.Eng.Now().Sub(start).Seconds()
			if finished++; finished == n {
				env.RM.Stop()
			} else if qs.AfterPrevious {
				submit(i + 1)
			}
		})
	}
	arrivals := n
	if qs.AfterPrevious {
		arrivals = 1 // the rest follow from the completions
	}
	for i := 0; i < arrivals; i++ {
		env.Eng.After(time.Duration(i)*qs.Gap, func() { submit(i) })
	}
	env.Eng.RunUntil(horizon)
	if runErr != nil {
		return nil, runErr
	}
	if finished != n {
		return nil, fmt.Errorf("bench: only %d of %d queries finished within the horizon", finished, n)
	}
	if err := env.CheckResidency(); err != nil {
		return nil, err
	}
	out.MeanLatency /= float64(n)
	out.HDFSBytes = env.DFS.BytesWritten - written
	out.Store = env.RT.Intermediates
	out.SlotSeconds = env.Srv.SlotSeconds
	counters := env.Reg.Counters()
	out.MemoHits = counters["memo_hits_total"]
	out.MemoMisses = counters["memo_misses_total"]
	return out, nil
}

// SameQueryRows checks two streams of the same plans returned the same rows,
// query by query.
func SameQueryRows(aName string, a *QueryStreamResult, bName string, b *QueryStreamResult) error {
	for i := range a.Results {
		ra, rb := canonQueryRows(a.Results[i].Rows), canonQueryRows(b.Results[i].Rows)
		if len(ra) != len(rb) {
			return fmt.Errorf("bench: query %d: %s returned %d rows, %s %d", i, aName, len(ra), bName, len(rb))
		}
		for j := range ra {
			if ra[j] != rb[j] {
				return fmt.Errorf("bench: query %d row %d: %s %q != %s %q", i, j, aName, ra[j], bName, rb[j])
			}
		}
	}
	return nil
}

// DAGQuery compares sequential-chain and DAG execution of a join-heavy
// multi-query workload: a stream of queries, each with two independent
// group-by branches feeding a join and an order-by. Both modes see the same
// compiled stages, the same arrivals and the same DAG runner on identical
// clusters; the chain mode keeps one stage of a query in flight at a time,
// the DAG mode overlaps the branches. The run fails if the two modes disagree
// on any query's rows or if the DAG does not beat the chain's makespan.
func DAGQuery(o Options) (*Figure, error) {
	o = o.normalized()
	setup := A3x4()
	setup.Seed = o.Seed
	qs := QueryStream{Gap: dagQueryGap}
	for i := 0; i < dagQueryCount; i++ {
		qs.Plans = append(qs.Plans, dagQueryPlan(i))
	}
	qs.Sequential = true
	chain, err := RunQueryStream(setup, qs, o)
	if err != nil {
		return nil, fmt.Errorf("bench: chain mode: %w", err)
	}
	qs.Sequential = false
	dag, err := RunQueryStream(setup, qs, o)
	if err != nil {
		return nil, fmt.Errorf("bench: dag mode: %w", err)
	}
	if err := SameQueryRows("chain", chain, "dag", dag); err != nil {
		return nil, err
	}
	if dag.Makespan >= chain.Makespan {
		return nil, fmt.Errorf("bench: dag makespan %.2fs did not beat chain %.2fs", dag.Makespan, chain.Makespan)
	}
	fig := &Figure{
		ID:      "dagquery",
		Title:   "Query DAG scheduling: sequential chains vs parallel branches",
		XLabel:  "execution mode",
		Columns: []string{"makespan", "mean-latency", "hdfs-mb", "saved-mb", "max-conc"},
	}
	for i, s := range []*QueryStreamResult{chain, dag} {
		maxConc := 0
		for _, res := range s.Results {
			maxConc = max(maxConc, res.MaxConcurrent)
		}
		fig.Points = append(fig.Points, Point{
			X: float64(i), Label: []string{"chain", "dag"}[i],
			Seconds: map[string]float64{
				"makespan":     s.Makespan,
				"mean-latency": s.MeanLatency,
				"hdfs-mb":      float64(s.HDFSBytes) / mb,
				"saved-mb":     float64(s.Store.HDFSBytesAvoided) / mb,
				"max-conc":     float64(maxConc),
			},
		})
	}
	fig.Notes = []string{
		fmt.Sprintf("%d join-heavy queries (4 stages each) arriving every %s, AM pool %d; stages run as D+ jobs in both modes", dagQueryCount, dagQueryGap, dagQueryPool),
		"makespan: first arrival to last query done (virtual s); max-conc: peak in-flight stages of one query",
		"hdfs-mb: HDFS bytes the queries wrote; saved-mb: intermediate bytes kept in the producer-local store instead",
		fmt.Sprintf("DAG beats chain by %.1f%% on makespan and %.1f%% on mean latency with row-identical results",
			(chain.Makespan-dag.Makespan)/chain.Makespan*100, (chain.MeanLatency-dag.MeanLatency)/chain.MeanLatency*100),
	}
	return fig, nil
}
