package query

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"testing"
)

// warehousePlan is bench.WarehouseQuery's shape (this package cannot import
// bench): two filtered group-by branches on a high-cardinality key feeding a
// join and an order-by.
func warehousePlan(minAmount, minRefund int, desc bool) *Plan {
	sales := Scan("sales").
		Filter(Where("amount", OpGt, strconv.Itoa(minAmount))).
		GroupBy([]string{"cell"}, Sum("amount"), Count())
	returns := Scan("returns").
		Filter(Where("refund", OpGt, strconv.Itoa(minRefund))).
		GroupBy([]string{"cell"}, Sum("refund"))
	return sales.Join(returns, "cell", "cell").OrderBy("sum(amount)", desc)
}

var (
	warehouseSalesSchema   = Schema{"id", "cell", "amount"}
	warehouseReturnsSchema = Schema{"rid", "cell", "refund"}
)

// warehouseRows generates the sales/returns warehouse the way the bench
// package does: about eight sales rows and four returns per cell.
func warehouseRows(nSales int, seed int64) (sales, returns []Row) {
	rng := rand.New(rand.NewSource(seed))
	cells := nSales / 8
	sales = make([]Row, nSales)
	for i := range sales {
		sales[i] = Row{strconv.Itoa(i), fmt.Sprintf("c%05d", rng.Intn(cells)), strconv.Itoa(rng.Intn(1000))}
	}
	returns = make([]Row, nSales/2)
	for i := range returns {
		returns[i] = Row{strconv.Itoa(i), fmt.Sprintf("c%05d", rng.Intn(cells)), strconv.Itoa(rng.Intn(200))}
	}
	return sales, returns
}

// stageFilesDigest runs p and returns one FNV-64a digest over every stage's
// part files, intermediates included. Intermediates are dropped when the
// query finishes, so the engine is stepped one event at a time and each file
// is read the first time the store has it; the result stage's files are read
// from HDFS at the end.
func (e *env) stageFilesDigest(t *testing.T, p *Plan) string {
	t.Helper()
	// The runner compiles under the next query id; compiling the same plan
	// under it here yields the file names the run will write.
	compiled, err := CompileWith(e.cat, fmt.Sprintf("dq%04d", e.run.qseq+1), p, e.run.Opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := e.run.FW.RT
	contents := map[string][]byte{}
	poll := func() {
		if rt.Intermediates == nil {
			return
		}
		for _, st := range compiled.Stages {
			for _, f := range st.Out.Files {
				if _, seen := contents[f]; seen {
					continue
				}
				if data, ok := rt.Intermediates.Contents(f); ok {
					contents[f] = data
				}
			}
		}
	}
	var res *Result
	var runErr error
	e.eng.After(0, func() {
		e.run.Run(p, func(r *Result, err error) { res, runErr = r, err })
	})
	for res == nil && runErr == nil && e.eng.Step() {
		poll()
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res == nil {
		t.Fatal("query never completed")
	}
	h := fnv.New64a()
	for _, st := range compiled.Stages {
		for i, f := range st.Out.Files {
			data, ok := contents[f]
			if !ok {
				if data, err = rt.DFS.Contents(f); err != nil {
					t.Fatalf("stage %d (%s) part %d: never seen in the store and not in HDFS: %v", st.ID, st.Kind, i, err)
				}
			}
			fmt.Fprintf(h, "%d|%s|%d|%d|", st.ID, st.Kind, i, len(data))
			h.Write(data)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestStagePartFilesPinned pins the bytes of every stage's part files — the
// group-by and join outputs over several partitions, the order-by's single
// one — for the three warehouse query variants under both schedules. The row codec may change how the bytes are produced, never the
// bytes: part files, PartBytes, the cost model's charges and every virtual
// time follow from them.
func TestStagePartFilesPinned(t *testing.T) {
	variants := []struct {
		name string
		plan *Plan
		want string
	}{
		{"amount>100,refund>20,desc", warehousePlan(100, 20, true), "546946e0e3e0bdf8"},
		{"amount>160,refund>30,desc", warehousePlan(160, 30, true), "7a4406f1e3a408e7"},
		{"amount>100,refund>20,asc", warehousePlan(100, 20, false), "a9ef7f5e9be72291"},
	}
	for _, sequential := range []bool{true, false} {
		e := newDAGEnv(t, 4)
		sales, returns := warehouseRows(2000, 7)
		e.mustCreate(t, "sales", warehouseSalesSchema, sales, 4)
		e.mustCreate(t, "returns", warehouseReturnsSchema, returns, 3)
		e.run.Mode = ViaDPlus
		e.run.Sequential = sequential
		e.run.Opts = CompileOptions{TargetBytesPerReduce: 8 << 10, MaxReduces: 4}
		for _, v := range variants {
			if got := e.stageFilesDigest(t, v.plan); got != v.want {
				t.Errorf("sequential=%v %s: stage part files digest %s, pinned %s", sequential, v.name, got, v.want)
			}
		}
	}
}
