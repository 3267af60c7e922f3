package query

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mrapid/internal/costmodel"
	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
	"mrapid/internal/shuffle"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
)

// The string codec, kept as the reference the byte-view codec is checked
// against: every stage closure as it was when a row was a []string — DecodeRow
// then index, a closure chain per fused filter/projection, strings.Split over
// partial states, fmt.Sprintf to render them. It differs from that code in
// the two places the byte-view change fixed on purpose: partial states carry
// sums in shortest round-trip form, and a state whose sum/min/max does not
// parse is an error instead of a silent zero.

// eval applies the condition to a value.
func (c Cond) eval(v string) bool {
	if c.Op == OpContains {
		return contains(v, c.Val)
	}
	if a, okA := numericStr(v); okA {
		if b, okB := numericStr(c.Val); okB {
			return cmpOrd(c.Op, compareFloat(a, b))
		}
	}
	return cmpOrd(c.Op, strings.Compare(v, c.Val))
}

func contains(haystack, needle string) bool {
	if needle == "" {
		return true
	}
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

func numericStr(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// formatNum renders a result column: integers print as integers.
func formatNum(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 12, 64)
}

// formatPartial renders a partial state's sum, min or max.
func formatPartial(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sortKey is the production sort key of a string value.
func sortKey(v string, desc bool) []byte { return appendSortKey(nil, []byte(v), desc) }

func refSortKey(v string, desc bool) []byte {
	if f, ok := numericStr(v); ok {
		bits := math.Float64bits(f)
		if f >= 0 {
			bits |= 1 << 63
		} else {
			bits = ^bits
		}
		if desc {
			bits = ^bits
		}
		return []byte(fmt.Sprintf("n%016x", bits))
	}
	if desc {
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

func refDecodeStageLine(line []byte) Row {
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

// refSource is a stage input with its fused transform as a closure chain.
type refSource struct {
	schema    Schema
	transform func(Row) (Row, bool)
}

func (s refSource) index(col string) int {
	i, err := s.schema.Index(col)
	if err != nil {
		panic(err)
	}
	return i
}

func (s refSource) apply(r Row) (Row, bool) {
	if s.transform == nil {
		return r, true
	}
	return s.transform(r)
}

func (s refSource) filter(conds ...Cond) refSource {
	idx := make([]int, len(conds))
	for i, cond := range conds {
		idx[i] = s.index(cond.Col)
	}
	prev := s.transform
	s.transform = func(r Row) (Row, bool) {
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
	return s
}

func (s refSource) project(cols ...string) refSource {
	idx := make([]int, len(cols))
	for i, col := range cols {
		idx[i] = s.index(col)
	}
	prev := s.transform
	s.transform = func(r Row) (Row, bool) {
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
	s.schema = append(Schema(nil), cols...)
	return s
}

func refEncodeAggStates(row Row, aggIdx []int, aggs []Agg, skipped *atomic.Int64) []byte {
	var parts []string
	for i := range aggs {
		if aggs[i].Kind == AggCount {
			parts = append(parts, "1,0,0,0")
			continue
		}
		v, ok := numericStr(row[aggIdx[i]])
		if !ok {
			skipped.Add(1)
			parts = append(parts, "0,0,0,0")
			continue
		}
		n := formatPartial(v)
		parts = append(parts, "1,"+n+","+n+","+n)
	}
	return []byte(strings.Join(parts, colSep))
}

func refMergeAggStates(values [][]byte, n int) ([]int64, []float64, []float64, []float64, error) {
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
			if c == 0 {
				continue
			}
			s, errS := strconv.ParseFloat(f[1], 64)
			lo, errL := strconv.ParseFloat(f[2], 64)
			hi, errH := strconv.ParseFloat(f[3], 64)
			if errS != nil || errL != nil || errH != nil {
				return nil, nil, nil, nil, fmt.Errorf("query: corrupt agg field %q", p)
			}
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

// runsOf collapses adjacent equal values into counted runs, the shape in
// which a merge of folded map outputs hands them to a reducer.
func runsOf(values [][]byte) mapreduce.Values {
	var vals [][]byte
	var counts []int
	for _, v := range values {
		if n := len(vals); n > 0 && bytes.Equal(vals[n-1], v) {
			counts[n-1]++
			continue
		}
		vals, counts = append(vals, v), append(counts, 1)
	}
	return mapreduce.NewValues(vals, counts)
}

// occurrences expands runs back into one value per occurrence: the string
// codec's reducers see nothing counted.
func occurrences(vs mapreduce.Values) [][]byte {
	var out [][]byte
	vs.Each(func(v []byte) { out = append(out, v) })
	return out
}

// refStage is one stage's closures in the string codec. mapFor is the join's
// two tagged maps; fold is the group-by's merge of one key's per-row states,
// in the order given, into its partial state.
type refStage struct {
	mapFn   mapreduce.MapFunc
	mapFor  [2]mapreduce.MapFunc
	fold    mapreduce.ReduceFunc
	reduce  mapreduce.ReduceFunc
	skipped *atomic.Int64
}

func refMaterialize(src refSource) refStage {
	return refStage{
		mapFn: func(_, line []byte, emit mapreduce.Emit) {
			row, ok := src.apply(refDecodeStageLine(line))
			if !ok {
				return
			}
			emit(EncodeRow(row), nil)
		},
		reduce: func(key []byte, values mapreduce.Values, emit mapreduce.Emit) {
			for range occurrences(values) {
				emit(key, nil)
			}
		},
	}
}

func refGroupBy(src refSource, keys []string, aggs []Agg) refStage {
	keyIdx := make([]int, len(keys))
	for i, k := range keys {
		keyIdx[i] = src.index(k)
	}
	aggIdx := make([]int, len(aggs))
	for i, a := range aggs {
		if a.Kind != AggCount {
			aggIdx[i] = src.index(a.Col)
		}
	}
	skipped := &atomic.Int64{}
	mergeAndEmit := func(key []byte, values mapreduce.Values, emit mapreduce.Emit, final bool) {
		cnt, sum, mn, mx, err := refMergeAggStates(occurrences(values), len(aggs))
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
				parts[i] = fmt.Sprintf("%d,%s,%s,%s", cnt[i], formatPartial(sum[i]), formatPartial(mn[i]), formatPartial(mx[i]))
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
				row = append(row, "NULL")
				continue
			}
			row = append(row, formatNum(v))
		}
		emit(EncodeRow(row), nil)
	}
	return refStage{
		skipped: skipped,
		mapFn: func(_, line []byte, emit mapreduce.Emit) {
			row, ok := src.apply(refDecodeStageLine(line))
			if !ok {
				return
			}
			keyParts := make([]string, len(keyIdx))
			for i, j := range keyIdx {
				keyParts[i] = row[j]
			}
			emit([]byte(strings.Join(keyParts, colSep)), refEncodeAggStates(row, aggIdx, aggs, skipped))
		},
		fold:   func(key []byte, values mapreduce.Values, emit mapreduce.Emit) { mergeAndEmit(key, values, emit, false) },
		reduce: func(key []byte, values mapreduce.Values, emit mapreduce.Emit) { mergeAndEmit(key, values, emit, true) },
	}
}

func refJoin(left, right refSource, leftCol, rightCol string) refStage {
	mkSide := func(side refSource, keyCol int, tag string) mapreduce.MapFunc {
		return func(_, line []byte, emit mapreduce.Emit) {
			row, ok := side.apply(refDecodeStageLine(line))
			if !ok {
				return
			}
			emit([]byte(row[keyCol]), []byte(tag+colSep+string(EncodeRow(row))))
		}
	}
	return refStage{
		mapFor: [2]mapreduce.MapFunc{mkSide(left, left.index(leftCol), "L"), mkSide(right, right.index(rightCol), "R")},
		reduce: func(_ []byte, values mapreduce.Values, emit mapreduce.Emit) {
			var ls, rs []Row
			for _, v := range occurrences(values) {
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
		},
	}
}

func refOrderBy(src refSource, col string, desc bool) refStage {
	ci := src.index(col)
	return refStage{
		mapFn: func(_, line []byte, emit mapreduce.Emit) {
			row, ok := src.apply(refDecodeStageLine(line))
			if !ok {
				return
			}
			emit(refSortKey(row[ci], desc), EncodeRow(row))
		},
		reduce: func(key []byte, values mapreduce.Values, emit mapreduce.Emit) {
			for _, v := range occurrences(values) {
				emit(key, v)
			}
		},
	}
}

// codecCatalog registers the tables the codec tests and benchmarks compile
// against. Their files are never read: the compiled closures are called
// directly.
func codecCatalog(tb testing.TB) *Catalog {
	tb.Helper()
	eng := sim.NewEngine()
	cluster, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: 2, Racks: 1})
	if err != nil {
		tb.Fatal(err)
	}
	params := costmodel.Default()
	cat := NewCatalog(hdfs.New(eng, cluster, params.HDFSBlockBytes, params.Replication, 1), cluster)
	for _, t := range []*Table{
		{Name: "t", Schema: Schema{"a", "b", "c"}, Files: []string{"/warehouse/t/part-00000"}},
		{Name: "u", Schema: Schema{"x", "y"}, Files: []string{"/warehouse/u/part-00000"}},
		{Name: "sales", Schema: warehouseSalesSchema, Files: []string{"/warehouse/sales/part-00000"}},
		{Name: "returns", Schema: warehouseReturnsSchema, Files: []string{"/warehouse/returns/part-00000"}},
	} {
		if err := cat.Register(t); err != nil {
			tb.Fatal(err)
		}
	}
	return cat
}

// refSplit runs a split's lines through the reference's per-row group-by
// map and folds each key's states in row order: the partial states the
// split's flush must emit, sorted by key.
func refSplit(ref refStage, lines [][]byte) emitted {
	out := capture(func(emit mapreduce.Emit) {
		var order []string
		states := map[string][][]byte{}
		for _, line := range lines {
			ref.mapFn(nil, line, func(k, v []byte) {
				if _, seen := states[string(k)]; !seen {
					order = append(order, string(k))
				}
				states[string(k)] = append(states[string(k)], bytes.Clone(v))
			})
		}
		for _, k := range order {
			ones := make([]int, len(states[k]))
			for i := range ones {
				ones[i] = 1
			}
			ref.fold([]byte(k), mapreduce.NewValues(states[k], ones), emit)
		}
	})
	return sortedPairs(out)
}

// mapSplitOf is what mapSplit emits, sorted by key.
func mapSplitOf(spec *mapreduce.JobSpec, file string, lines [][]byte) emitted {
	return sortedPairs(capture(func(emit mapreduce.Emit) {
		mapSplit(spec, file, lines, emit, func(k, v []byte, n int) {
			for range n {
				emit(k, v)
			}
		})
	}))
}

// sortedPairs orders a split's output by key: which key a flush emits
// first is not part of its contract, the sort that follows it is.
func sortedPairs(e emitted) emitted {
	sort.Slice(e.pairs, func(i, j int) bool { return e.pairs[i][0] < e.pairs[j][0] })
	return e
}

// emitted is what one closure call produced: its pairs, or that it panicked.
type emitted struct {
	pairs    [][2]string
	panicked bool
}

func capture(call func(emit mapreduce.Emit)) (out emitted) {
	defer func() {
		if recover() != nil {
			out = emitted{panicked: true}
		}
	}()
	call(func(k, v []byte) { out.pairs = append(out.pairs, [2]string{string(k), string(v)}) })
	return out
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// refReadTable is ReadTable through the string codec: LineFormat's framing
// and DecodeRow of each line's row, and whether every row is w wide.
func refReadTable(file []byte, w int) (rows []Row, ok bool) {
	ok = true
	mapreduce.LineFormat{}.Scan(file, func(_, line []byte) {
		r := DecodeRow(rowBytes(line))
		ok = ok && len(r) == w
		rows = append(rows, r)
	})
	return rows, ok
}

// FuzzStageCodec checks the byte-view codec against the string codec on
// arbitrary lines and states: the value-level rules on every field (split,
// numeric, filter conditions, sort keys), then every compiled stage closure
// against its string-codec counterpart — same emitted bytes, same
// panic-or-not, same skipped-value count — with and without a fused
// filter+projection. The group-by map is the aggregator: a split of the
// fuzzed line, rows carrying the state's numbers under the line's key, and
// the line again, through MapFor and its flush, must emit what the
// reference's per-row states folded in row order give. The catalog's read
// path is checked too: ReadTable of files built from the line against
// LineFormat's framing and DecodeRow.
func FuzzStageCodec(f *testing.F) {
	wide := strings.Repeat("7"+colSep, inlineFields+3) + "x"
	for _, line := range []string{
		"17" + colSep + "c00042" + colSep + "250",
		"", colSep, colSep + colSep, "k\t1" + colSep + "b" + colSep + "3", "9" + colSep + "b" + colSep + "3\t",
		wide, "1e3" + colSep + "+Inf" + colSep + "NaN", "0x1p-2" + colSep + "1_0" + colSep + "+5",
		" 5" + colSep + "5 " + colSep + "-0", "banana" + colSep + colSep + "12.50",
	} {
		for i, state := range []string{
			"1,5,5,5" + colSep + "1,0,0,0" + colSep + "1,0.1,0.1,0.1" + colSep + "0,0,0,0",
			"2,0.30000000000000004,0.1,0.2" + colSep + "2,0,0,0" + colSep + "2,7,3,4" + colSep + "1,1e3,1e3,1e3",
			"1,x,5,5" + colSep + "1,0,0,0" + colSep + "1,1,1,1" + colSep + "1,1,1,1",
			"1,5,5" + colSep + "1,0,0,0", "", "x,1,1,1", "1,5,5,5,5", "L" + colSep + "1" + colSep + "2", "R", "0,,,",
		} {
			f.Add([]byte(line), []byte(state), "10", uint8(i))
			f.Add([]byte(line), []byte(state), "2.5e2", uint8(i)|16)
			f.Add([]byte(line), []byte(state), "c0", uint8(i)|8|16|32)
		}
	}
	// The table path's edges: no row but an empty one, a lone newline, and
	// a one-column empty row behind an empty key.
	for _, line := range []string{"", "\n", "\t"} {
		f.Add([]byte(line), []byte(nil), "", uint8(0))
	}
	cat := codecCatalog(f)
	writer := cat.cluster.Workers()[0]
	ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpContains}
	aggs := []Agg{Count(), Sum("c"), Min("a"), Avg("c")}

	f.Fuzz(func(t *testing.T, line, state []byte, lit string, sel uint8) {
		op, desc, fuse := ops[int(sel)%len(ops)], sel&8 != 0, sel&16 != 0

		// Value-level rules, field by field.
		want := refDecodeStageLine(line)
		var inline [inlineFields]span
		row := rowBytes(line)
		got := splitFields(row, inline[:0])
		if len(got) != len(want) {
			t.Fatalf("line %q splits into %d fields, DecodeRow into %d", line, len(got), len(want))
		}
		for i, w := range want {
			v := got.field(row, i)
			if string(v) != w {
				t.Fatalf("line %q field %d = %q, DecodeRow has %q", line, i, v, w)
			}
			gn, gok := numeric(v)
			wn, wok := numericStr(w)
			if gok != wok || gok && !sameFloat(gn, wn) {
				t.Fatalf("numeric(%q) = %v, %v; strconv says %v, %v", v, gn, gok, wn, wok)
			}
			for _, d := range []bool{false, true} {
				if g, w := appendSortKey(nil, v, d), refSortKey(w, d); string(g) != string(w) {
					t.Fatalf("sort key of %q (desc=%v) = %q, want %q", v, d, g, w)
				}
			}
			for _, o := range ops {
				c := Cond{Col: "a", Op: o, Val: lit}
				p := newPred(0, c)
				if p.eval(v) != c.eval(w) {
					t.Fatalf("%q %s %q: pred says %v, Cond.eval %v", v, o, lit, p.eval(v), c.eval(w))
				}
			}
		}
		// The table path: ReadTable of a file holding the line, an empty
		// line, the line behind a pair's key and an unterminated copy, at
		// the width of each row the reference reads from it and at one
		// more, must return the reference's rows or fail when one row's
		// width differs from the schema's. The same file without the empty
		// line reads at widths the empty row would fail.
		for _, file := range [][]byte{
			slices.Concat(line, newline, newline, []byte("key\t"), line, newline, line),
			slices.Concat(line, newline, []byte("key\t"), line, newline, line),
		} {
			if _, err := cat.dfs.OverwriteInstant("/warehouse/fz/part-00000", file, writer); err != nil {
				t.Fatal(err)
			}
			refRows, _ := refReadTable(file, 0)
			widths := []int{1}
			for _, r := range refRows {
				widths = append(widths, len(r), len(r)+1)
			}
			for _, w := range widths {
				wantRows, ok := refReadTable(file, w)
				got, err := cat.ReadTable(&Table{Name: "fz", Schema: make(Schema, w), Files: []string{"/warehouse/fz/part-00000"}})
				if (err == nil) != ok {
					t.Fatalf("ReadTable of %q at width %d: error %v, reference widths ok = %v", file, w, err, ok)
				}
				if ok && !reflect.DeepEqual(got, wantRows) {
					t.Fatalf("ReadTable of %q at width %d = %q, reference %q", file, w, got, wantRows)
				}
			}
		}

		if len(want) < 3 {
			return // narrower than the schema: indexing panics, where depends on the codec
		}

		// Stage closures. The fused variant filters on the fuzzed literal and
		// reorders the columns, so keys and aggregate inputs go through the
		// column map.
		scanT, refT := Scan("t"), refSource{schema: Schema{"a", "b", "c"}}
		scanU, refU := Scan("u"), refSource{schema: Schema{"x", "y"}}
		if fuse {
			cond := Cond{Col: "c", Op: op, Val: lit}
			scanT, refT = scanT.Filter(cond).Project("c", "a", "b"), refT.filter(cond).project("c", "a", "b")
			scanU, refU = scanU.Project("y", "x"), refU.project("y", "x")
		}
		keys := []string{"b"}
		if sel&32 != 0 {
			keys = []string{"b", "a"}
		}
		compile := func(p *Plan) *Compiled {
			compiled, err := Compile(cat, "fz", p)
			if err != nil {
				t.Fatal(err)
			}
			return compiled
		}
		same := func(what string, got, want emitted) emitted {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on line %q state %q (lit %q, sel %d):\n got %+v\nwant %+v", what, line, state, lit, sel, got, want)
			}
			return got
		}
		onLine := func(fn mapreduce.MapFunc) emitted {
			return capture(func(emit mapreduce.Emit) { fn(nil, line, emit) })
		}
		// Adjacent equal values reach a closure as one counted run.
		onValues := func(fn mapreduce.ReduceFunc, key string, values ...[]byte) emitted {
			return capture(func(emit mapreduce.Emit) { fn([]byte(key), runsOf(values), emit) })
		}

		// The split: the line, one row per number-like piece of the state
		// (and the literal) in its aggregate columns under the line's key,
		// and the line again. Pieces that would change the row's framing
		// are left out.
		split := [][]byte{line}
		for _, piece := range append(bytes.FieldsFunc(state, func(r rune) bool { return r == sepByte || r == ',' }), []byte(lit)) {
			if !bytes.ContainsAny(piece, "\t\x1f") && !strings.Contains(want[1], "\t") {
				split = append(split, []byte(string(piece)+colSep+want[1]+colSep+string(piece)))
			}
		}
		split = append(split, line)
		gb := compile(scanT.GroupBy(keys, aggs...))
		gbSpec, gbRef := gb.Stages[0].Spec, refGroupBy(refT, keys, aggs)
		mapped := same("group-by split", mapSplitOf(gbSpec, "/warehouse/t/part-00000", split), refSplit(gbRef, split))
		if g, w := gb.AggParseErrors.Load(), gbRef.skipped.Load(); g != w {
			t.Fatalf("group-by split of %q skipped %d values, reference %d", split, g, w)
		}
		values := [][]byte{state}
		for _, row := range split {
			rows := capture(func(emit mapreduce.Emit) { gbRef.mapFn(nil, row, emit) })
			for _, p := range rows.pairs {
				// Three copies: a run of three adds its sum three times,
				// which sum × 3 does not always equal.
				values = append(values, []byte(p[1]), []byte(p[1]), []byte(p[1]), state)
			}
		}
		same("reduce", onValues(gbSpec.Reduce, "k"+colSep+"j", values...), onValues(gbRef.reduce, "k"+colSep+"j", values...))
		for _, p := range mapped.pairs {
			same("reduce of flushed", onValues(gbSpec.Reduce, "", []byte(p[1])), onValues(gbRef.reduce, "", []byte(p[1])))
		}

		join := compile(scanT.Join(scanU, "a", "x")).Stages[0].Spec
		joinRef := refJoin(refT, refU, "a", "x")
		one := [][]byte{line}
		left := same("join left map", mapSplitOf(join, "/warehouse/t/part-00000", one), onLine(joinRef.mapFor[0]))
		right := same("join right map", mapSplitOf(join, "/warehouse/u/part-00000", one), onLine(joinRef.mapFor[1]))
		values = [][]byte{state}
		for _, p := range append(left.pairs, right.pairs...) {
			values = append(values, []byte(p[1]), []byte(p[1]))
		}
		same("join reduce", onValues(join.Reduce, "k", values...), onValues(joinRef.reduce, "k", values...))
		same("join reduce without the state", onValues(join.Reduce, "k", values[1:]...), onValues(joinRef.reduce, "k", values[1:]...))

		same("order-by map", mapSplitOf(compile(scanT.OrderBy("c", desc)).Stages[0].Spec, "/warehouse/t/part-00000", one), onLine(refOrderBy(refT, "c", desc).mapFn))
		same("materialize map", mapSplitOf(compile(scanT).Stages[0].Spec, "/warehouse/t/part-00000", one), onLine(refMaterialize(refT).mapFn))
	})
}

// TestPartialStatesKeepFractions: SUM and AVG over a fractional column must
// not lose digits on the wire between the map's fold and the reduce's merge.
// The amounts are multiples of 2^-30 below 10, so every partial sum is exact
// in float64 in any order and the result has to equal the reference's, digit
// for digit — with the shuffle service's ConsolidateGroup between the maps
// and the reduce and without it. Rendering partial states with 12 digits
// lost the tail at every hop.
func TestPartialStatesKeepFractions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	regions := []string{"east", "west", "north", "south"}
	rows := make([]Row, 4000)
	for i := range rows {
		amount := float64(rng.Int63n(10<<30)) / (1 << 30)
		rows[i] = Row{strconv.Itoa(i), regions[rng.Intn(len(regions))], strconv.FormatFloat(amount, 'f', -1, 64)}
	}
	plan := Scan("sales").GroupBy([]string{"region"}, Sum("amount"), Avg("amount"), Min("amount"), Max("amount"))
	for _, service := range []bool{false, true} {
		e := newDAGEnv(t, 4)
		if service {
			if _, err := shuffle.Attach(e.run.FW.RT); err != nil {
				t.Fatal(err)
			}
		}
		e.run.Mode = ViaDPlus
		e.mustCreate(t, "sales", Schema{"id", "region", "amount"}, rows, 4)
		checkAgainstReference(t, e.tables, plan, fmt.Sprintf("shuffle service %v", service), e.exec(t, plan))
	}
}

// TestFoldedRowsSumOccurrenceExact: ten byte-identical rows whose amount is
// 0.1 fold in the map's table into one partial state. Its sum must be ten
// additions of 0.1, 0.9999999999999999 — what merging the ten rows' states
// computed — and not 0.1 × 10, which is 1: a partial state may not depend on
// how the map side folded its rows. The result must match the reference.
func TestFoldedRowsSumOccurrenceExact(t *testing.T) {
	rows := make([]Row, 10)
	for i := range rows {
		rows[i] = Row{"east", "0.1"}
	}
	plan := Scan("sales").GroupBy([]string{"region"}, Sum("amount"), Count())
	e := newDAGEnv(t, 4)
	tab := e.mustCreate(t, "sales", Schema{"region", "amount"}, rows, 1)
	checkAgainstReference(t, e.tables, plan, "folded rows", e.exec(t, plan))

	compiled, err := Compile(e.cat, "folded", plan)
	if err != nil {
		t.Fatal(err)
	}
	data, err := e.cat.dfs.Contents(tab.Files[0])
	if err != nil {
		t.Fatal(err)
	}
	mo := mapreduce.ExecMapFile(compiled.Stages[0].Spec, tab.Files[0], data)
	states := &mapreduce.JobSpec{Reduce: func(key []byte, values mapreduce.Values, emit mapreduce.Emit) {
		values.Each(func(v []byte) { emit(key, v) })
	}}
	want := "east\t10,0.9999999999999999,0.1,0.1" + colSep + "10,0,0,0\n"
	if got := mapreduce.ExecReduce(states, 0, []*mapreduce.MapOutput{mo}).Encoded; string(got) != want {
		t.Fatalf("folded partial state %q, want %q", got, want)
	}
}

// TestCorruptAggStateFails: a state whose sum, min or max does not parse fails
// the reduce's merge like a damaged count does; it used to fold in as zero.
func TestCorruptAggStateFails(t *testing.T) {
	compiled, err := Compile(codecCatalog(t), "corrupt", Scan("t").GroupBy([]string{"a"}, Sum("c"), Count()))
	if err != nil {
		t.Fatal(err)
	}
	spec := compiled.Stages[0].Spec
	good := []byte("2,7,3,4" + colSep + "2,0,0,0")
	if out := capture(func(emit mapreduce.Emit) { spec.Reduce([]byte("k"), runsOf([][]byte{good, good}), emit) }); out.panicked ||
		len(out.pairs) != 1 || out.pairs[0][0] != "k"+colSep+"14"+colSep+"4" {
		t.Fatalf("intact states reduce to %+v", out)
	}
	for _, bad := range []string{"2,x,3,4", "2,7,,4", "2,7,3,4,5", "2,7,3,0x"} {
		values := [][]byte{good, []byte(bad + colSep + "2,0,0,0")}
		if out := capture(func(emit mapreduce.Emit) { spec.Reduce([]byte("k"), runsOf(values), emit) }); !out.panicked {
			t.Errorf("reduce folded the corrupt state %q into %+v", bad, out.pairs)
		}
	}
}

// TestGroupByTableMatchesRowOrderFold: a group-by split folded in the
// mapper's table emits what the reference's per-row states, folded in row
// order, give — over values that exercise every fold rule (non-numeric,
// NaN, ±Inf, −0, fractions, hex and underscore spellings, an empty row),
// for COUNT-only plans, multi-column keys, a fused filter+projection, and a
// split with enough keys to grow the table. Splits run back to back through
// one compiled spec, and at once on several goroutines, emit what each
// emits alone: the pooled table keeps nothing of the split before it.
func TestGroupByTableMatchesRowOrderFold(t *testing.T) {
	const file = "/warehouse/t/part-00000"
	cat := codecCatalog(t)
	row := func(a, b, c string) []byte { return EncodeRow(Row{a, b, c}) }
	splits := map[string][][]byte{
		"odd": {
			row("1", "k", "x"), row("NaN", "k", "2.5"), row("+Inf", "j", "-Inf"), row("-0", "k", "0"),
			row("0", "j", "-0"), row("0.1", "k", "0.2"), row("1e3", "j", "NaN"), row("x", "k", "0.30000000000000004"),
			row("-1.5", "j", "+Inf"), row("", "", ""), row("7", "k", "banana"), row("0x1p-2", "j", "1_0"),
			row("-0", "k", "-0"), row("0.1", "k", "0.7"), row("0.1", "j", "0.1"),
		},
		"many": nil,
	}
	for i := range 3000 {
		splits["many"] = append(splits["many"], row(strconv.Itoa(i%7), fmt.Sprintf("g%04d", i%1500), strconv.Itoa(i)+".25"))
	}
	refT := refSource{schema: Schema{"a", "b", "c"}}
	fusedCond := Where("c", OpNe, "banana")
	cases := []struct {
		name string
		plan *Plan
		ref  refSource
		keys []string
		aggs []Agg
	}{
		{"sum min max avg", Scan("t"), refT, []string{"b"}, []Agg{Sum("c"), Min("a"), Max("c"), Avg("a")}},
		{"count only", Scan("t"), refT, []string{"b"}, []Agg{Count()}},
		{"two-column key", Scan("t"), refT, []string{"b", "a"}, []Agg{Count(), Sum("c"), Min("c")}},
		{"fused", Scan("t").Filter(fusedCond).Project("c", "b", "a"), refT.filter(fusedCond).project("c", "b", "a"),
			[]string{"a", "b"}, []Agg{Max("c"), Count(), Sum("a")}},
	}
	for _, c := range cases {
		compiled, err := Compile(cat, "tbl", c.plan.GroupBy(c.keys, c.aggs...))
		if err != nil {
			t.Fatal(err)
		}
		spec, ref := compiled.Stages[0].Spec, refGroupBy(c.ref, c.keys, c.aggs)
		if spec.Combine != nil {
			t.Fatalf("%s: the group-by stage sets a Combine", c.name)
		}
		alone := map[string]emitted{}
		for name, split := range splits {
			got, want := mapSplitOf(spec, file, split), refSplit(ref, split)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, split %s:\n got %+v\nwant %+v", c.name, name, got, want)
			}
			if g, w := compiled.AggParseErrors.Load(), ref.skipped.Load(); g != w {
				t.Fatalf("%s, split %s: %d values skipped, reference %d", c.name, name, g, w)
			}
			alone[name] = got
		}
		for _, name := range []string{"many", "odd", "many", "odd"} {
			if got := mapSplitOf(spec, file, splits[name]); !reflect.DeepEqual(got, alone[name]) {
				t.Fatalf("%s: split %s after another emits\n %+v\nalone\n %+v", c.name, name, got, alone[name])
			}
		}
		// Simulations on several goroutines map splits of one compiled
		// stage at once, each split on a table of its own.
		var wg sync.WaitGroup
		for w := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 6 {
					name := [...]string{"odd", "many"}[(w+i)%2]
					if got := mapSplitOf(spec, file, splits[name]); !reflect.DeepEqual(got, alone[name]) {
						t.Errorf("%s: split %s on goroutine %d emits\n %+v\nalone\n %+v", c.name, name, w, got, alone[name])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
