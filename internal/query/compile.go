package query

import (
	"fmt"
	"math"
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
	// planner silently aggregated them as 0). Incremented from worker-pool
	// goroutines, hence atomic; under a speculative race both modes map the
	// same rows, so treat the count as a lower-bounded signal, not an exact
	// row count.
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

// source is a fusable input: files plus a row transform pending application
// in the next stage's map function. producer is the stage that wrote the
// files (-1 for base tables); estBytes is the planner's size estimate. sig
// accumulates the plan-content signature of the rows this source yields —
// scan plus any fused filters/projections, or a producer stage's Sig.
type source struct {
	files     []string
	schema    Schema
	transform func(Row) (Row, bool) // nil = identity
	producer  int
	estBytes  int64
	sig       string
}

// apply runs the pending transform.
func (s *source) apply(r Row) (Row, bool) {
	if s.transform == nil {
		return r, true
	}
	return s.transform(r)
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
	if src.transform == nil && src.producer >= 0 {
		out = c.out[src.producer].Out
	} else {
		st, err := c.materialize(src)
		if err != nil {
			return nil, err
		}
		out = st.Out
	}
	// The result table stays in HDFS; everything upstream is intra-query.
	// Every stage of a kind shares one JobKey and one set of closure
	// symbols, so the plan signature is what tells their map functions apart.
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
		idx := make([]int, len(p.conds))
		for i, cond := range p.conds {
			j, err := src.schema.Index(cond.Col)
			if err != nil {
				return nil, err
			}
			idx[i] = j
		}
		conds := p.conds
		prev := src.transform
		src.transform = func(r Row) (Row, bool) {
			if prev != nil {
				var ok bool
				if r, ok = prev(r); !ok {
					return nil, false
				}
			}
			for i, cond := range conds {
				if !cond.eval(r[idx[i]]) {
					return nil, false
				}
			}
			return r, true
		}
		rendered := make([]string, len(conds))
		for i, cond := range conds {
			rendered[i] = cond.Col + string(cond.Op) + cond.Val
		}
		src.sig = fmt.Sprintf("filter[%s](%s)", strings.Join(rendered, "&"), src.sig)
		return src, nil

	case nodeProject:
		src, err := c.compileNode(p.left)
		if err != nil {
			return nil, err
		}
		idx := make([]int, len(p.cols))
		for i, col := range p.cols {
			j, err := src.schema.Index(col)
			if err != nil {
				return nil, err
			}
			idx[i] = j
		}
		prev := src.transform
		src.transform = func(r Row) (Row, bool) {
			if prev != nil {
				var ok bool
				if r, ok = prev(r); !ok {
					return nil, false
				}
			}
			out := make(Row, len(idx))
			for i, j := range idx {
				out[i] = r[j]
			}
			return out, true
		}
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

// decodeStageLine recovers a row from either a raw table line or a
// pair-encoded stage output line (key TAB value; order-by stages put the
// row in the value).
func decodeStageLine(line []byte) Row {
	for i := 0; i < len(line); i++ {
		if line[i] == '\t' {
			key, val := line[:i], line[i+1:]
			if len(val) > 0 {
				return DecodeRow(val)
			}
			return DecodeRow(key)
		}
	}
	return DecodeRow(line)
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
		row, ok := src.apply(decodeStageLine(line))
		if !ok {
			return
		}
		emit(EncodeRow(row), nil)
	}
	st.Spec.Reduce = func(key []byte, values [][]byte, emit mapreduce.Emit) {
		for range values {
			emit(key, nil)
		}
	}
	return st, nil
}

// aggState is the mergeable partial state of all aggregates for one key:
// per aggregate, (count, sum, min, max) encoded compactly so map-side
// combining works. A value that fails to parse as a number contributes an
// empty state (count 0) instead of silently aggregating as 0, and ticks the
// skipped counter; COUNT counts rows regardless.
func encodeAggStates(row Row, aggIdx []int, aggs []Agg, skipped *atomic.Int64) []byte {
	buf := make([]byte, 0, 24*len(aggs))
	for i := range aggs {
		if i > 0 {
			buf = append(buf, colSep...)
		}
		if aggs[i].Kind == AggCount {
			buf = append(buf, "1,0,0,0"...)
			continue
		}
		v, ok := numeric(row[aggIdx[i]])
		if !ok {
			if skipped != nil {
				skipped.Add(1)
			}
			buf = append(buf, "0,0,0,0"...)
			continue
		}
		// One observation is its own sum, min and max.
		n := formatNum(v)
		buf = append(buf, "1,"...)
		buf = append(buf, n...)
		buf = append(buf, ',')
		buf = append(buf, n...)
		buf = append(buf, ',')
		buf = append(buf, n...)
	}
	return buf
}

func mergeAggStates(values [][]byte, n int) ([]int64, []float64, []float64, []float64, error) {
	cnt := make([]int64, n)
	sum := make([]float64, n)
	mn := make([]float64, n)
	mx := make([]float64, n)
	for i := range mn {
		mn[i] = math.Inf(1)
		mx[i] = math.Inf(-1)
	}
	for _, v := range values {
		parts := strings.Split(string(v), colSep)
		if len(parts) != n {
			return nil, nil, nil, nil, fmt.Errorf("query: corrupt agg state %q", v)
		}
		for i, p := range parts {
			f := strings.SplitN(p, ",", 4)
			if len(f) != 4 {
				return nil, nil, nil, nil, fmt.Errorf("query: corrupt agg field %q", p)
			}
			c, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			// Empty states (count 0, from skipped non-numeric values) carry
			// no observation: folding their placeholder min/max/sum would
			// resurrect the silent-zero bug this encoding exists to fix.
			if c == 0 {
				continue
			}
			s, _ := strconv.ParseFloat(f[1], 64)
			lo, _ := strconv.ParseFloat(f[2], 64)
			hi, _ := strconv.ParseFloat(f[3], 64)
			cnt[i] += c
			sum[i] += s
			if lo < mn[i] {
				mn[i] = lo
			}
			if hi > mx[i] {
				mx[i] = hi
			}
		}
	}
	return cnt, sum, mn, mx, nil
}

// groupByStage emits the aggregation job.
func (c *compiler) groupByStage(src *source, keys []string, aggs []Agg) (*source, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("query: group-by needs at least one key")
	}
	if len(aggs) == 0 {
		return nil, fmt.Errorf("query: group-by needs at least one aggregate")
	}
	keyIdx := make([]int, len(keys))
	for i, k := range keys {
		j, err := src.schema.Index(k)
		if err != nil {
			return nil, err
		}
		keyIdx[i] = j
	}
	aggIdx := make([]int, len(aggs))
	for i, a := range aggs {
		if a.Kind == AggCount {
			continue
		}
		j, err := src.schema.Index(a.Col)
		if err != nil {
			return nil, err
		}
		aggIdx[i] = j
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
	aggNames := make([]string, len(aggs))
	for i, a := range aggs {
		aggNames[i] = a.Name()
	}
	st.Sig = fmt.Sprintf("groupby[%s;%s]x%d(%s)",
		strings.Join(keys, ","), strings.Join(aggNames, ","), len(out.Files), src.sig)
	skipped := c.errs
	st.Spec.Map = func(_, line []byte, emit mapreduce.Emit) {
		row, ok := src.apply(decodeStageLine(line))
		if !ok {
			return
		}
		keyParts := make([]string, len(keyIdx))
		for i, j := range keyIdx {
			keyParts[i] = row[j]
		}
		emit([]byte(strings.Join(keyParts, colSep)), encodeAggStates(row, aggIdx, aggs, skipped))
	}
	mergeAndEmit := func(key []byte, values [][]byte, emit mapreduce.Emit, final bool) {
		cnt, sum, mn, mx, err := mergeAggStates(values, len(aggs))
		if err != nil {
			panic(err)
		}
		if !final {
			parts := make([]string, len(aggs))
			for i := range aggs {
				if cnt[i] == 0 {
					parts[i] = "0,0,0,0"
					continue
				}
				parts[i] = fmt.Sprintf("%d,%s,%s,%s", cnt[i], formatNum(sum[i]), formatNum(mn[i]), formatNum(mx[i]))
			}
			emit(key, []byte(strings.Join(parts, colSep)))
			return
		}
		row := DecodeRow(key)
		for i, a := range aggs {
			var v float64
			switch a.Kind {
			case AggCount:
				row = append(row, strconv.FormatInt(cnt[i], 10))
				continue
			case AggSum:
				v = sum[i]
			case AggMin:
				v = mn[i]
			case AggMax:
				v = mx[i]
			case AggAvg:
				if cnt[i] > 0 {
					v = sum[i] / float64(cnt[i])
				}
			}
			if cnt[i] == 0 {
				// Every value in the group failed to parse: surface NULL
				// rather than a fabricated 0 (or ±Inf from the identity
				// elements).
				row = append(row, "NULL")
				continue
			}
			row = append(row, formatNum(v))
		}
		emit(EncodeRow(row), nil)
	}
	st.Spec.Combine = func(key []byte, values [][]byte, emit mapreduce.Emit) {
		mergeAndEmit(key, values, emit, false)
	}
	st.Spec.Reduce = func(key []byte, values [][]byte, emit mapreduce.Emit) {
		mergeAndEmit(key, values, emit, true)
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
	li, err := left.schema.Index(leftCol)
	if err != nil {
		return nil, err
	}
	ri, err := right.schema.Index(rightCol)
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
	mkSide := func(side *source, keyCol int, tag string) mapreduce.MapFunc {
		return func(_, line []byte, emit mapreduce.Emit) {
			row, ok := side.apply(decodeStageLine(line))
			if !ok {
				return
			}
			emit([]byte(row[keyCol]), []byte(tag+colSep+string(EncodeRow(row))))
		}
	}
	leftMap := mkSide(left, li, "L")
	rightMap := mkSide(right, ri, "R")
	st.Spec.MapFor = func(file string) mapreduce.MapFunc {
		if leftFiles[file] {
			return leftMap
		}
		return rightMap
	}
	st.Spec.Reduce = func(_ []byte, values [][]byte, emit mapreduce.Emit) {
		var ls, rs []Row
		for _, v := range values {
			s := string(v)
			i := strings.Index(s, colSep)
			if i < 0 {
				panic(fmt.Sprintf("query: corrupt join value %q", s))
			}
			row := DecodeRow([]byte(s[i+len(colSep):]))
			if s[:i] == "L" {
				ls = append(ls, row)
			} else {
				rs = append(rs, row)
			}
		}
		for _, l := range ls {
			for _, r := range rs {
				emit(EncodeRow(append(append(Row(nil), l...), r...)), nil)
			}
		}
	}
	return &source{files: out.Files, schema: outSchema, producer: st.ID, estBytes: estIn, sig: st.Sig}, nil
}

// orderByStage emits the single-reducer sort job. Numeric columns sort
// numerically via an order-preserving fixed-width encoding of the float
// bits; string columns sort lexically.
func (c *compiler) orderByStage(src *source, col string, desc bool) (*source, error) {
	ci, err := src.schema.Index(col)
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
		row, ok := src.apply(decodeStageLine(line))
		if !ok {
			return
		}
		emit(sortKey(row[ci], desc), EncodeRow(row))
	}
	st.Spec.Reduce = func(key []byte, values [][]byte, emit mapreduce.Emit) {
		for _, v := range values {
			emit(key, v)
		}
	}
	return &source{files: out.Files, schema: src.schema, producer: st.ID, estBytes: src.estBytes, sig: st.Sig}, nil
}

// sortKey builds an order-preserving byte encoding of a column value:
// numerics map through the IEEE-754 total-order trick to 16 hex digits
// (prefixed "n"), everything else sorts lexically after all numerics
// (prefixed "s"), matching SQL's numeric-before-string comparison.
func sortKey(v string, desc bool) []byte {
	if f, ok := numeric(v); ok {
		bits := math.Float64bits(f)
		if f >= 0 {
			bits |= 1 << 63
		} else {
			bits = ^bits
		}
		if desc {
			bits = ^bits
		}
		var digits [16]byte
		hex := strconv.AppendUint(digits[:0], bits, 16)
		key := append(make([]byte, 0, 17), 'n')
		key = append(key, "0000000000000000"[len(hex):]...)
		return append(key, hex...)
	}
	if desc {
		// Descending strings: invert each byte, then close with a 0xff
		// sentinel. The sentinel fixes prefix ordering — without it, the
		// inverted encoding of "ab" is a prefix of the inverted "abc" and
		// sorts before it, putting the shorter string first when descending
		// order demands it last. 0xff cannot collide with inverted content:
		// the catalog rejects NUL bytes in values, so no inverted byte is
		// ever 0xff.
		b := []byte(v)
		inv := make([]byte, len(b)+1)
		for i, ch := range b {
			inv[i] = 0xff - ch
		}
		inv[len(b)] = 0xff
		return append([]byte("s"), inv...)
	}
	return append([]byte("s"), v...)
}
