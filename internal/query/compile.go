package query

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"mrapid/internal/mapreduce"
)

// Query-stage compute rates: parsing delimited rows is lighter than
// WordCount tokenization; aggregation streams fast.
const (
	stageMapRate    = 8e6
	stageReduceRate = 20e6
)

// Reduce-count heuristic defaults: one reducer per this many estimated
// input bytes, capped. Small enough that modest tables already exercise
// partitioned intermediates, large enough that the tiny golden-test tables
// stay single-reduce.
const (
	DefaultTargetBytesPerReduce = 256 << 10
	DefaultMaxReduces           = 8
)

// CompileOptions tune the physical planner.
type CompileOptions struct {
	// TargetBytesPerReduce sizes each shuffle stage's reduce count from its
	// estimated input: reduces = ceil(est / target), clamped to
	// [1, MaxReduces]. Order-by stages always use one reducer (global
	// order needs a single sorted stream). Zero means the default.
	TargetBytesPerReduce int64

	// MaxReduces caps the per-stage reduce count. Zero means the default.
	MaxReduces int
}

func (o CompileOptions) reducesFor(estBytes int64) int {
	target := o.TargetBytesPerReduce
	if target <= 0 {
		target = DefaultTargetBytesPerReduce
	}
	maxR := o.MaxReduces
	if maxR <= 0 {
		maxR = DefaultMaxReduces
	}
	r := int((estBytes + target - 1) / target)
	if r < 1 {
		r = 1
	}
	if r > maxR {
		r = maxR
	}
	return r
}

// Stage is one MapReduce job of a compiled query, producing a temp table.
type Stage struct {
	// ID is the stage's index in Compiled.Stages; Deps lists the IDs of the
	// stages whose outputs this stage reads (base tables contribute no
	// edge). The slice order is a valid topological order — producers are
	// always emitted before their consumers — so the sequential Runner can
	// still execute stages front to back, while the DAG runner launches
	// every dependency-free stage concurrently.
	ID   int
	Deps []int

	Spec *mapreduce.JobSpec
	Out  *Table
	Kind string // "groupby", "join", "orderby", "materialize"

	// Sig is the stage's plan-content signature: operator, rendered
	// predicates/aggregates, reduce count, and the signatures of everything
	// upstream, all the way down to base-table scans. Two stages from
	// *different* queries share a Sig exactly when they compute the same
	// table from the same base tables — the identity the cross-job memo
	// cache keys on (query IDs and temp-table paths never appear in it).
	Sig string

	// EstInBytes is the planner's input-size estimate that sized the
	// stage's reduce count.
	EstInBytes int64
}

// Compiled is the physical plan: a stage DAG (Stages in topological order,
// dependency edges in Stage.Deps), the last stage producing the result.
type Compiled struct {
	Stages []*Stage
	Out    *Table

	// AggParseErrors counts non-numeric values that SUM/MIN/MAX/AVG
	// aggregates skipped during this query's map tasks (satellite: the old
	// planner silently aggregated them as 0). Atomic, so one compiled query
	// can run in simulations on several goroutines; under a speculative race
	// both modes map the same rows, so treat the count as a lower-bounded
	// signal, not an exact row count.
	AggParseErrors *atomic.Int64
}

// compiler carries naming state for one compilation.
type compiler struct {
	cat   *Catalog
	qid   string
	opts  CompileOptions
	stage int
	out   []*Stage
	errs  *atomic.Int64
}

// source is a fusable input: files plus the filters and projection pending
// application in the next stage's map function. The pending work is data, not
// a closure chain: preds are conditions over the stored row's fields, cols
// maps each schema position to the stored field it shows (nil = the stored
// row as it is). producer is the stage that wrote the files (-1 for base
// tables); estBytes is the planner's size estimate. sig accumulates the
// plan-content signature of the rows this source yields — scan plus any fused
// filters/projections, or a producer stage's Sig.
type source struct {
	files    []string
	schema   Schema
	preds    []pred
	cols     []int
	fused    bool // a filter or projection is pending, even an empty one
	producer int
	estBytes int64
	sig      string
}

// fieldOf resolves a column name to the stored row's field.
func (s *source) fieldOf(col string) (int, error) {
	j, err := s.schema.Index(col)
	if err != nil || s.cols == nil {
		return j, err
	}
	return s.cols[j], nil
}

// scan splits a stage input line once (into buf, which the caller keeps on
// its stack) and reports whether the row passes the fused filters.
func (s *source) scan(line []byte, buf spans) (row []byte, sp spans, ok bool) {
	row = rowBytes(line)
	sp = splitFields(row, buf)
	for i := range s.preds {
		if p := &s.preds[i]; !p.eval(sp.field(row, p.field)) {
			return row, sp, false
		}
	}
	return row, sp, true
}

// appendRow appends the encoded row the source yields: the stored row's own
// bytes unless a projection is pending.
func (s *source) appendRow(dst, row []byte, sp spans) []byte {
	if s.cols == nil {
		return append(dst, row...)
	}
	return sp.appendFields(dst, row, s.cols)
}

// deps returns the dependency edges a stage reading these sources needs.
func stageDeps(srcs ...*source) []int {
	var deps []int
	for _, s := range srcs {
		if s.producer >= 0 {
			deps = append(deps, s.producer)
		}
	}
	return deps
}

// Compile lowers a logical plan to MapReduce stages with default options.
func Compile(cat *Catalog, qid string, p *Plan) (*Compiled, error) {
	return CompileWith(cat, qid, p, CompileOptions{})
}

// CompileWith lowers a logical plan to a stage DAG, fusing filters and
// projections into the map phase of the nearest downstream shuffle — the
// way Hive's physical planner packs operators into job boundaries. Interior
// map-only work never becomes its own stage: a `materialize` stage appears
// only at the result boundary, when the plan ends in fused-but-unapplied
// transforms (or is a bare scan). Every stage except the result producer is
// marked IntermediateOutput, routing its table through the runtime's
// intermediate store instead of HDFS.
func CompileWith(cat *Catalog, qid string, p *Plan, opts CompileOptions) (*Compiled, error) {
	c := &compiler{cat: cat, qid: qid, opts: opts, errs: &atomic.Int64{}}
	src, err := c.compileNode(p)
	if err != nil {
		return nil, err
	}
	// A plan ending in scan/filter/project (pending transform, or no stage
	// at all) still needs one job to materialize its result.
	var out *Table
	if !src.fused && src.producer >= 0 {
		out = c.out[src.producer].Out
	} else {
		st, err := c.materialize(src)
		if err != nil {
			return nil, err
		}
		out = st.Out
	}
	// The result table stays in HDFS; everything upstream is intra-query.
	// Every stage of a kind shares one set of closure symbols, so the plan
	// signature is what tells their computations apart to both result caches.
	for _, st := range c.out {
		st.Spec.IntermediateOutput = st.Out != out
		st.Spec.ClosureSig = st.Sig
	}
	return &Compiled{Stages: c.out, Out: out, AggParseErrors: c.errs}, nil
}

// tmpTable allocates the next stage's output table.
func (c *compiler) tmpTable(schema Schema, reduces int) *Table {
	name := fmt.Sprintf("%s-stage%d", c.qid, c.stage)
	base := fmt.Sprintf("/query/%s/stage-%d", c.qid, c.stage)
	c.stage++
	t := &Table{Name: name, Schema: schema}
	for p := 0; p < reduces; p++ {
		t.Files = append(t.Files, mapreduce.PartFileName(base, p))
	}
	return t
}

// outputBase recovers the OutputFile prefix from a tmp table. A table whose
// files do not follow the /part- layout cannot serve as a job output
// directory — report that instead of slicing at index -1.
func outputBase(t *Table) (string, error) {
	if len(t.Files) == 0 {
		return "", fmt.Errorf("query: table %q has no files", t.Name)
	}
	f := t.Files[0]
	i := strings.LastIndex(f, "/part-")
	if i < 0 {
		return "", fmt.Errorf("query: table %q file %q is not a part file (want .../part-NNNNN)", t.Name, f)
	}
	return f[:i], nil
}

// tableBytes sums the on-DFS sizes of a source's files for the reduce-count
// heuristic. Files that do not exist yet (another stage's pending output)
// contribute nothing — callers estimate those from the producer instead.
func (c *compiler) tableBytes(files []string) int64 {
	var total int64
	for _, name := range files {
		if f, err := c.cat.dfs.Lookup(name); err == nil {
			total += f.Size()
		}
	}
	return total
}

// compileNode returns the fusable source for a plan node, emitting stages
// for every shuffle boundary beneath it.
func (c *compiler) compileNode(p *Plan) (*source, error) {
	switch p.kind {
	case nodeScan:
		t, err := c.cat.Lookup(p.table)
		if err != nil {
			return nil, err
		}
		if len(t.Files) == 0 {
			return nil, fmt.Errorf("query: table %q has no files", t.Name)
		}
		return &source{
			files:    t.Files,
			schema:   t.Schema,
			producer: -1,
			estBytes: c.tableBytes(t.Files),
			sig:      fmt.Sprintf("scan[%s|%s]", t.Name, strings.Join(t.Schema, ",")),
		}, nil

	case nodeFilter:
		src, err := c.compileNode(p.left)
		if err != nil {
			return nil, err
		}
		src.fused = true
		rendered := make([]string, len(p.conds))
		for i, cond := range p.conds {
			f, err := src.fieldOf(cond.Col)
			if err != nil {
				return nil, err
			}
			src.preds = append(src.preds, newPred(f, cond))
			rendered[i] = cond.Col + string(cond.Op) + cond.Val
		}
		src.sig = fmt.Sprintf("filter[%s](%s)", strings.Join(rendered, "&"), src.sig)
		return src, nil

	case nodeProject:
		src, err := c.compileNode(p.left)
		if err != nil {
			return nil, err
		}
		cols := make([]int, len(p.cols))
		for i, col := range p.cols {
			if cols[i], err = src.fieldOf(col); err != nil {
				return nil, err
			}
		}
		src.cols, src.fused = cols, true
		src.schema = append(Schema(nil), p.cols...)
		src.sig = fmt.Sprintf("project[%s](%s)", strings.Join(p.cols, ","), src.sig)
		return src, nil

	case nodeGroupBy:
		src, err := c.compileNode(p.left)
		if err != nil {
			return nil, err
		}
		return c.groupByStage(src, p.keys, p.aggs)

	case nodeJoin:
		left, err := c.compileNode(p.left)
		if err != nil {
			return nil, err
		}
		right, err := c.compileNode(p.right)
		if err != nil {
			return nil, err
		}
		return c.joinStage(left, right, p.on[0], p.on[1])

	case nodeOrderBy:
		src, err := c.compileNode(p.left)
		if err != nil {
			return nil, err
		}
		return c.orderByStage(src, p.cols[0], p.desc)

	default:
		return nil, fmt.Errorf("query: unknown plan node %d", p.kind)
	}
}

// newStage builds the common JobSpec skeleton for one stage and appends the
// stage to the plan with its dependency edges.
func (c *compiler) newStage(kind string, inputs []string, out *Table, estIn int64, deps []int) (*Stage, error) {
	base, err := outputBase(out)
	if err != nil {
		return nil, err
	}
	st := &Stage{
		ID:   len(c.out),
		Deps: deps,
		Out:  out,
		Kind: kind,

		EstInBytes: estIn,
		Spec: &mapreduce.JobSpec{
			Name:       out.Name,
			JobKey:     "query-" + kind,
			InputFiles: inputs,
			OutputFile: base,
			NumReduces: len(out.Files),
			Format:     mapreduce.LineFormat{},
			MapRate:    stageMapRate,
			ReduceRate: stageReduceRate,
		},
	}
	c.out = append(c.out, st)
	return st, nil
}

// materialize emits a pass-through stage for plans ending without a
// shuffle: rows become keys so the output is deterministic (sorted within
// each partition), with duplicate rows preserved through value
// multiplicity. Interior map-only work is always fused into its consumer's
// map function, so this stage only ever sits at the result boundary.
func (c *compiler) materialize(src *source) (*Stage, error) {
	out := c.tmpTable(src.schema, c.opts.reducesFor(src.estBytes))
	st, err := c.newStage("materialize", src.files, out, src.estBytes, stageDeps(src))
	if err != nil {
		return nil, err
	}
	st.Sig = fmt.Sprintf("materialize[]x%d(%s)", len(out.Files), src.sig)
	st.Spec.Map = func(_, line []byte, emit mapreduce.Emit) {
		var inline [inlineFields]span
		row, sp, ok := src.scan(line, inline[:0])
		if !ok {
			return
		}
		if src.cols == nil {
			emit(row, nil)
			return
		}
		buf := scratchPool.Get().(*scratch)
		buf.b = src.appendRow(buf.b[:0], row, sp)
		emit(buf.b, nil)
		scratchPool.Put(buf)
	}
	st.Spec.Reduce = func(key []byte, values mapreduce.Values, emit mapreduce.Emit) {
		for i := range values.Len() {
			_, n := values.At(i)
			for range n {
				emit(key, nil)
			}
		}
	}
	return st, nil
}

// groupByStage emits the aggregation job.
func (c *compiler) groupByStage(src *source, keys []string, aggs []Agg) (*source, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("query: group-by needs at least one key")
	}
	if len(aggs) == 0 {
		return nil, fmt.Errorf("query: group-by needs at least one aggregate")
	}
	var err error
	keyField := make([]int, len(keys))
	for i, k := range keys {
		if keyField[i], err = src.fieldOf(k); err != nil {
			return nil, err
		}
	}
	aggField := make([]int, len(aggs))
	for i, a := range aggs {
		if a.Kind == AggCount {
			continue
		}
		if aggField[i], err = src.fieldOf(a.Col); err != nil {
			return nil, err
		}
	}
	outSchema := append(Schema(nil), keys...)
	for _, a := range aggs {
		outSchema = append(outSchema, a.Name())
	}
	out := c.tmpTable(outSchema, c.opts.reducesFor(src.estBytes))
	st, err := c.newStage("groupby", src.files, out, src.estBytes, stageDeps(src))
	if err != nil {
		return nil, err
	}
	st.Sig = fmt.Sprintf("groupby[%s;%s]x%d(%s)",
		strings.Join(keys, ","), strings.Join(outSchema[len(keys):], ","), len(out.Files), src.sig)
	skipped := c.errs
	st.Spec.Map = func(_, line []byte, emit mapreduce.Emit) {
		var inline [inlineFields]span
		row, sp, ok := src.scan(line, inline[:0])
		if !ok {
			return
		}
		// A one-column key is emitted where it lies in the input line (the
		// record builder indexes such slices in place); a wider key is joined
		// ahead of the state in the same buffer.
		buf := scratchPool.Get().(*scratch)
		key, b := sp.field(row, keyField[0]), buf.b[:0]
		if len(keyField) > 1 {
			b = sp.appendFields(b, row, keyField)
			key = b
		}
		n := len(b)
		b = appendRowStates(b, row, sp, aggField, aggs, skipped)
		emit(key, b[n:])
		buf.b = b
		scratchPool.Put(buf)
	}
	st.Spec.Combine = func(key []byte, values mapreduce.Values, emit mapreduce.Emit) {
		var inline [inlineAggs]aggAcc
		acc, err := mergeAggStates(values, len(aggs), &inline)
		if err != nil {
			panic(err)
		}
		buf := scratchPool.Get().(*scratch)
		buf.b = appendStates(buf.b[:0], acc)
		emit(key, buf.b)
		scratchPool.Put(buf)
	}
	st.Spec.Reduce = func(key []byte, values mapreduce.Values, emit mapreduce.Emit) {
		var inline [inlineAggs]aggAcc
		acc, err := mergeAggStates(values, len(aggs), &inline)
		if err != nil {
			panic(err)
		}
		buf := scratchPool.Get().(*scratch)
		b := append(buf.b[:0], key...)
		for i, a := range aggs {
			b = append(b, sepByte)
			var v float64
			switch a.Kind {
			case AggCount:
				b = strconv.AppendInt(b, acc[i].cnt, 10)
				continue
			case AggSum:
				v = acc[i].sum
			case AggMin:
				v = acc[i].lo
			case AggMax:
				v = acc[i].hi
			case AggAvg:
				v = acc[i].sum / float64(acc[i].cnt)
			}
			if acc[i].cnt == 0 {
				// Every value in the group failed to parse: surface NULL
				// rather than a fabricated 0 (or ±Inf from the identity
				// elements).
				b = append(b, "NULL"...)
				continue
			}
			b = appendNum(b, v, resultPrec)
		}
		emit(b, nil)
		buf.b = b
		scratchPool.Put(buf)
	}
	// Grouping collapses rows; a quarter of the input is a workable prior
	// for sizing downstream stages.
	return &source{files: out.Files, schema: outSchema, producer: st.ID, estBytes: src.estBytes / 4, sig: st.Sig}, nil
}

// joinStage emits the repartition join job: both sides' files feed one job
// whose per-file map tags each row with its side. The two input subtrees
// are independent — the stage's Deps carry one edge per side that is itself
// a stage, which is exactly where the DAG runner overlaps branches.
func (c *compiler) joinStage(left, right *source, leftCol, rightCol string) (*source, error) {
	li, err := left.fieldOf(leftCol)
	if err != nil {
		return nil, err
	}
	ri, err := right.fieldOf(rightCol)
	if err != nil {
		return nil, err
	}
	outSchema := append(append(Schema(nil), left.schema...), right.schema...)
	estIn := left.estBytes + right.estBytes
	out := c.tmpTable(outSchema, c.opts.reducesFor(estIn))
	inputs := append(append([]string(nil), left.files...), right.files...)
	st, err := c.newStage("join", inputs, out, estIn, stageDeps(left, right))
	if err != nil {
		return nil, err
	}
	st.Sig = fmt.Sprintf("join[%s=%s]x%d(%s|%s)",
		leftCol, rightCol, len(out.Files), left.sig, right.sig)

	leftFiles := map[string]bool{}
	for _, f := range left.files {
		leftFiles[f] = true
	}
	mkSide := func(side *source, keyField int, tag byte) mapreduce.MapFunc {
		return func(_, line []byte, emit mapreduce.Emit) {
			var inline [inlineFields]span
			row, sp, ok := side.scan(line, inline[:0])
			if !ok {
				return
			}
			buf := scratchPool.Get().(*scratch)
			buf.b = side.appendRow(append(buf.b[:0], tag, sepByte), row, sp)
			emit(sp.field(row, keyField), buf.b)
			scratchPool.Put(buf)
		}
	}
	leftMap := mkSide(left, li, 'L')
	rightMap := mkSide(right, ri, 'R')
	st.Spec.MapFor = func(file string) mapreduce.MapFunc {
		if leftFiles[file] {
			return leftMap
		}
		return rightMap
	}
	// A joined row is the left row's bytes, a separator, the right row's
	// bytes: nothing is decoded. rows holds the group's left rows from the
	// front and its right rows from the back, each run expanded to its
	// occurrences — on the stack for a group of up to inlineRows — and each
	// left row meets the right rows in value order.
	const inlineRows = 16
	st.Spec.Reduce = func(_ []byte, values mapreduce.Values, emit mapreduce.Emit) {
		total := 0
		for i := range values.Len() {
			_, n := values.At(i)
			total += n
		}
		var inline [inlineRows][]byte
		rows := inline[:]
		if total > len(rows) {
			rows = make([][]byte, total)
		}
		nl, nr := 0, 0
		for i := range values.Len() {
			v, n := values.At(i)
			tag, row, ok := bytes.Cut(v, sepBytes)
			if !ok {
				panic(fmt.Sprintf("query: corrupt join value %q", v))
			}
			for range n {
				if string(tag) == "L" {
					rows[nl] = row
					nl++
				} else {
					nr++
					rows[total-nr] = row
				}
			}
		}
		buf := scratchPool.Get().(*scratch)
		for _, left := range rows[:nl] {
			for i := total - 1; i >= nl; i-- {
				buf.b = append(append(append(buf.b[:0], left...), sepByte), rows[i]...)
				emit(buf.b, nil)
			}
		}
		scratchPool.Put(buf)
	}
	return &source{files: out.Files, schema: outSchema, producer: st.ID, estBytes: estIn, sig: st.Sig}, nil
}

// orderByStage emits the single-reducer sort job. Numeric columns sort
// numerically via an order-preserving fixed-width encoding of the float
// bits; string columns sort lexically.
func (c *compiler) orderByStage(src *source, col string, desc bool) (*source, error) {
	ci, err := src.fieldOf(col)
	if err != nil {
		return nil, err
	}
	// Global order needs one sorted stream: the reduce count stays 1
	// regardless of input size.
	out := c.tmpTable(src.schema, 1)
	st, err := c.newStage("orderby", src.files, out, src.estBytes, stageDeps(src))
	if err != nil {
		return nil, err
	}
	st.Sig = fmt.Sprintf("orderby[%s;desc=%v]x1(%s)", col, desc, src.sig)
	st.Spec.Map = func(_, line []byte, emit mapreduce.Emit) {
		var inline [inlineFields]span
		row, sp, ok := src.scan(line, inline[:0])
		if !ok {
			return
		}
		// An untransformed row passes through as the line's own bytes.
		buf := scratchPool.Get().(*scratch)
		b := appendSortKey(buf.b[:0], sp.field(row, ci), desc)
		n := len(b)
		if src.cols != nil {
			b = src.appendRow(b, row, sp)
			row = b[n:]
		}
		emit(b[:n], row)
		buf.b = b
		scratchPool.Put(buf)
	}
	st.Spec.Reduce = func(key []byte, values mapreduce.Values, emit mapreduce.Emit) {
		for i := range values.Len() {
			v, n := values.At(i)
			for range n {
				emit(key, v)
			}
		}
	}
	return &source{files: out.Files, schema: src.schema, producer: st.ID, estBytes: src.estBytes, sig: st.Sig}, nil
}
