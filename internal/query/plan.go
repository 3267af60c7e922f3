package query

import "fmt"

// Op compares a column against a literal in a filter condition.
type Op string

// Comparison operators.
const (
	OpEq       Op = "="
	OpNe       Op = "!="
	OpLt       Op = "<"
	OpLe       Op = "<="
	OpGt       Op = ">"
	OpGe       Op = ">="
	OpContains Op = "contains"
)

// Cond is one filter condition: column OP literal. Comparisons are numeric
// when both sides parse as numbers, lexical otherwise (Hive's loose-typing
// behaviour for string columns).
type Cond struct {
	Col string
	Op  Op
	Val string
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpOrd(op Op, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	default:
		panic(fmt.Sprintf("query: unknown operator %q", op))
	}
}

// AggKind identifies an aggregation function.
type AggKind int

// Aggregation kinds.
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

func (k AggKind) String() string {
	return [...]string{"count", "sum", "min", "max", "avg"}[k]
}

// Agg is one aggregation over a column (Count ignores its column).
type Agg struct {
	Kind AggKind
	Col  string
}

// Name is the output column name, e.g. "sum(amount)".
func (a Agg) Name() string {
	if a.Kind == AggCount {
		return "count(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Kind, a.Col)
}

// Convenience constructors.
func Count() Agg         { return Agg{Kind: AggCount} }
func Sum(col string) Agg { return Agg{Kind: AggSum, Col: col} }
func Min(col string) Agg { return Agg{Kind: AggMin, Col: col} }
func Max(col string) Agg { return Agg{Kind: AggMax, Col: col} }
func Avg(col string) Agg { return Agg{Kind: AggAvg, Col: col} }
func Where(col string, op Op, val string) Cond {
	return Cond{Col: col, Op: op, Val: val}
}

// nodeKind discriminates plan operators.
type nodeKind int

const (
	nodeScan nodeKind = iota
	nodeFilter
	nodeProject
	nodeGroupBy
	nodeJoin
	nodeOrderBy
)

// Plan is a logical query plan node. Plans are built fluently:
//
//	Scan("sales").
//	    Filter(Where("amount", OpGt, "100")).
//	    GroupBy([]string{"region"}, Sum("amount"), Count())
type Plan struct {
	kind  nodeKind
	table string // scan
	conds []Cond // filter
	cols  []string
	keys  []string // group-by keys
	aggs  []Agg
	left  *Plan // join/unary input
	right *Plan // join right input
	on    [2]string
	desc  bool // order-by direction
}

// Scan reads a catalog table.
func Scan(table string) *Plan { return &Plan{kind: nodeScan, table: table} }

// Filter keeps rows matching every condition.
func (p *Plan) Filter(conds ...Cond) *Plan {
	return &Plan{kind: nodeFilter, conds: conds, left: p}
}

// Project keeps the named columns, in order.
func (p *Plan) Project(cols ...string) *Plan {
	return &Plan{kind: nodeProject, cols: cols, left: p}
}

// GroupBy groups on keys and computes the aggregates; the output schema is
// keys followed by aggregate columns.
func (p *Plan) GroupBy(keys []string, aggs ...Agg) *Plan {
	return &Plan{kind: nodeGroupBy, keys: keys, aggs: aggs, left: p}
}

// Join inner-joins p with right on p.leftCol = right.rightCol; the output
// schema is the left schema followed by the right schema.
func (p *Plan) Join(right *Plan, leftCol, rightCol string) *Plan {
	return &Plan{kind: nodeJoin, left: p, right: right, on: [2]string{leftCol, rightCol}}
}

// OrderBy sorts the result by one column (numeric when the values parse).
func (p *Plan) OrderBy(col string, desc bool) *Plan {
	return &Plan{kind: nodeOrderBy, cols: []string{col}, desc: desc, left: p}
}

func (p *Plan) String() string {
	switch p.kind {
	case nodeScan:
		return fmt.Sprintf("scan(%s)", p.table)
	case nodeFilter:
		return fmt.Sprintf("filter(%v, %s)", p.conds, p.left)
	case nodeProject:
		return fmt.Sprintf("project(%v, %s)", p.cols, p.left)
	case nodeGroupBy:
		return fmt.Sprintf("groupby(%v, %s)", p.keys, p.left)
	case nodeJoin:
		return fmt.Sprintf("join(%s=%s, %s, %s)", p.on[0], p.on[1], p.left, p.right)
	case nodeOrderBy:
		return fmt.Sprintf("orderby(%s desc=%v, %s)", p.cols[0], p.desc, p.left)
	default:
		return "?"
	}
}
