package query

import (
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// refTable is a base table as the tests loaded it.
type refTable struct {
	schema Schema
	rows   []Row
}

// evalPlan is the reference the compiled stages are checked against: it
// evaluates a logical plan operator by operator over in-memory rows. It
// shares no code with Compile — no stages, no MapReduce, no partial-state
// encoding, no sort-key encoding — only the value-level rules a plan is
// defined by (Cond.eval, numeric, formatNum).
func evalPlan(t *testing.T, tables map[string]refTable, p *Plan) (Schema, []Row) {
	t.Helper()
	index := func(s Schema, col string) int {
		i, err := s.Index(col)
		if err != nil {
			t.Fatal(err)
		}
		return i
	}
	switch p.kind {
	case nodeScan:
		tab, ok := tables[p.table]
		if !ok {
			t.Fatalf("reference: unknown table %q", p.table)
		}
		return tab.schema, tab.rows

	case nodeFilter:
		schema, in := evalPlan(t, tables, p.left)
		var out []Row
	rows:
		for _, r := range in {
			for _, c := range p.conds {
				if !c.eval(r[index(schema, c.Col)]) {
					continue rows
				}
			}
			out = append(out, r)
		}
		return schema, out

	case nodeProject:
		schema, in := evalPlan(t, tables, p.left)
		out := make([]Row, len(in))
		for i, r := range in {
			for _, c := range p.cols {
				out[i] = append(out[i], r[index(schema, c)])
			}
		}
		return Schema(p.cols), out

	case nodeGroupBy:
		schema, in := evalPlan(t, tables, p.left)
		type acc struct {
			key           Row
			rows          int
			n             []int
			sum, min, max []float64
		}
		groups := map[string]*acc{}
		var order []string
		for _, r := range in {
			var key Row
			for _, k := range p.keys {
				key = append(key, r[index(schema, k)])
			}
			id := string(EncodeRow(key))
			g := groups[id]
			if g == nil {
				g = &acc{key: key, n: make([]int, len(p.aggs)), sum: make([]float64, len(p.aggs)),
					min: make([]float64, len(p.aggs)), max: make([]float64, len(p.aggs))}
				groups[id] = g
				order = append(order, id)
			}
			g.rows++
			for i, a := range p.aggs {
				if a.Kind == AggCount {
					continue
				}
				v, err := strconv.ParseFloat(r[index(schema, a.Col)], 64)
				if err != nil {
					continue // non-numeric values are skipped, not zeros
				}
				if g.n[i] == 0 || v < g.min[i] {
					g.min[i] = v
				}
				if g.n[i] == 0 || v > g.max[i] {
					g.max[i] = v
				}
				g.n[i]++
				g.sum[i] += v
			}
		}
		outSchema := Schema(append([]string(nil), p.keys...))
		for _, a := range p.aggs {
			outSchema = append(outSchema, a.Name())
		}
		var out []Row
		for _, id := range order {
			g := groups[id]
			row := append(Row(nil), g.key...)
			for i, a := range p.aggs {
				switch {
				case a.Kind == AggCount:
					row = append(row, strconv.Itoa(g.rows))
				case g.n[i] == 0:
					row = append(row, "NULL")
				case a.Kind == AggSum:
					row = append(row, formatNum(g.sum[i]))
				case a.Kind == AggMin:
					row = append(row, formatNum(g.min[i]))
				case a.Kind == AggMax:
					row = append(row, formatNum(g.max[i]))
				case a.Kind == AggAvg:
					row = append(row, formatNum(g.sum[i]/float64(g.n[i])))
				}
			}
			out = append(out, row)
		}
		return outSchema, out

	case nodeJoin:
		ls, lrows := evalPlan(t, tables, p.left)
		rs, rrows := evalPlan(t, tables, p.right)
		li, ri := index(ls, p.on[0]), index(rs, p.on[1])
		var out []Row
		for _, l := range lrows {
			for _, r := range rrows {
				if l[li] == r[ri] {
					out = append(out, append(append(Row(nil), l...), r...))
				}
			}
		}
		return append(append(Schema(nil), ls...), rs...), out

	case nodeOrderBy:
		schema, in := evalPlan(t, tables, p.left)
		ci := index(schema, p.cols[0])
		out := append([]Row(nil), in...)
		sort.SliceStable(out, func(a, b int) bool { return orderedBefore(out[a][ci], out[b][ci], p.desc) })
		return schema, out
	}
	t.Fatalf("reference: unknown plan node %d", p.kind)
	return nil, nil
}

// orderedBefore is ORDER BY's rule: numbers before strings, numbers by value,
// strings lexically; desc reverses within each class.
func orderedBefore(a, b string, desc bool) bool {
	fa, errA := strconv.ParseFloat(a, 64)
	fb, errB := strconv.ParseFloat(b, 64)
	switch {
	case errA == nil && errB == nil:
		if desc {
			return fa > fb
		}
		return fa < fb
	case errA == nil || errB == nil:
		return errA == nil
	case desc:
		return a > b
	default:
		return a < b
	}
}

// checkAgainstReference compares a runner's result with the reference
// evaluation of the same plan: the same rows, and — when the plan ends in an
// order-by — the same sequence of sort-column values (rows that tie on the
// column may come in either order).
func checkAgainstReference(t *testing.T, tables map[string]refTable, p *Plan, what string, got *Result) {
	t.Helper()
	schema, want := evalPlan(t, tables, p)
	if !reflect.DeepEqual([]string(schema), []string(got.Table.Schema)) {
		t.Fatalf("%s: schema %v, reference %v", what, got.Table.Schema, schema)
	}
	if !reflect.DeepEqual(canonRows(got.Rows), canonRows(want)) {
		t.Fatalf("%s: rows differ from the reference:\n got: %v\nwant: %v", what, got.Rows, want)
	}
	if p.kind != nodeOrderBy {
		return
	}
	ci, err := schema.Index(p.cols[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got.Rows[i][ci] != want[i][ci] {
			t.Fatalf("%s: row %d sorts on %q, reference has %q there", what, i, got.Rows[i][ci], want[i][ci])
		}
	}
}
