package query

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
	"sync/atomic"

	"mrapid/internal/mapreduce"
)

// The row codec. Between a stage's input line and the bytes it emits a row
// is never a []string: it is the line's own bytes plus the spans of its
// fields, computed once. Keys, filter operands and aggregate inputs are
// sub-slices of the line; whatever a closure has to build — a projected row,
// a partial state, a sort key — is appended into one borrowed scratch buffer
// and handed to emit, which copies it. The bytes are the ones the string
// codec produced: same separator, same number renderings, same sort keys.

const sepByte = 0x1f // colSep as a byte

var (
	sepBytes = []byte{sepByte}
	comma    = []byte{','}
	newline  = []byte{'\n'}
)

// EncodeRow and DecodeRow are the codec's string form: a row as a []string,
// joined and split on the separator. Nothing in the package calls them; the
// tests check the byte views against them.

// EncodeRow serializes a row for transport through pair keys/values.
func EncodeRow(r Row) []byte { return []byte(strings.Join(r, colSep)) }

// DecodeRow parses an encoded row. An empty encoding decodes as one empty
// column: zero-width rows cannot exist (schemas are non-empty), so the
// single-empty-column reading makes Encode/Decode a lossless round trip for
// every legal row.
func DecodeRow(b []byte) Row {
	return Row(strings.Split(string(b), colSep))
}

// span is one field's extent inside its row.
type span struct{ lo, hi int }

// spans is a row split once: its fields' extents. The row's bytes travel
// beside it, not in one struct with it — escape analysis does not tell a
// struct's fields apart, and a field handed to emit would drag the spans to
// the heap with it.
type spans []span

// inlineFields is how many spans fit the array a group-by's record function
// keeps on its stack; splitFields spills wider rows to the heap.
const inlineFields = 16

// field returns field i of row as a sub-slice.
func (s spans) field(row []byte, i int) []byte { return row[s[i].lo:s[i].hi] }

// rowBytes recovers the encoded row from either a raw table line or a
// pair-encoded stage output line (key TAB value; order-by stages put the row
// in the value).
func rowBytes(line []byte) []byte {
	if i := bytes.IndexByte(line, '\t'); i >= 0 {
		if val := line[i+1:]; len(val) > 0 {
			return val
		}
		return line[:i]
	}
	return line
}

// splitFields appends row's field spans to s. An empty row is one empty
// field, as in DecodeRow.
func splitFields(row []byte, s spans) spans {
	lo := 0
	for i, c := range row {
		if c == sepByte {
			s = append(s, span{lo, i})
			lo = i + 1
		}
	}
	return append(s, span{lo, len(row)})
}

// appendFields appends the listed fields of row, separator-joined: EncodeRow
// of the projection.
func (s spans) appendFields(dst, row []byte, idx []int) []byte {
	for i, j := range idx {
		if i > 0 {
			dst = append(dst, sepByte)
		}
		dst = append(dst, s.field(row, j)...)
	}
	return dst
}

// scratch is the buffer a closure builds its emitted bytes in. Closures may
// run concurrently in simulations on different goroutines and share nothing
// mutable: a split borrows a scratch, its record function and flush bound,
// from its lane's stack of scratches, a free list the collector does not
// empty, and the flush puts it back; a reduce borrows one per call.
type scratch struct {
	b       []byte
	sp      spans   // the current row's fields, reused row after row
	m       *rowMap // the split's stage
	mapFn   mapreduce.MapFunc
	flushFn func(mapreduce.CountedEmit)
}

var scratches mapreduce.FreeList[scratch]

// borrowScratch takes a buffer from lane's stack of scratches, or makes one
// wide enough for the usual row.
func borrowScratch(lane *mapreduce.Lane) *scratch {
	if s := scratches.Get(lane); s != nil {
		return s
	}
	s := &scratch{b: make([]byte, 0, 256)}
	s.mapFn = func(_, line []byte, emit mapreduce.Emit) {
		row, sp, ok := s.m.src.scan(line, s.sp[:0])
		s.sp = sp
		if ok {
			s.m.row(s, row, sp, emit)
		}
	}
	s.flushFn = func(mapreduce.CountedEmit) {
		s.m = nil
		scratches.Put(lane, s)
	}
	return s
}

// rowMap is the map side of a stage that emits per row: each row of src
// that passes its filters goes to row, which builds what it emits in s.b.
type rowMap struct {
	src *source
	row func(s *scratch, row []byte, sp spans, emit mapreduce.Emit)
}

// split is the stage's MapFor: it maps the split on a scratch from lane.
func (m *rowMap) split(_ string, lane *mapreduce.Lane) (mapreduce.MapFunc, func(mapreduce.CountedEmit)) {
	s := borrowScratch(lane)
	s.m = m
	return s.mapFn, s.flushFn
}

// pred is a filter condition compiled against a stored-row field, its
// literal parsed once.
type pred struct {
	field int
	op    Op
	val   []byte
	num   float64
	isNum bool
}

func newPred(field int, c Cond) pred {
	p := pred{field: field, op: c.Op, val: []byte(c.Val)}
	p.num, p.isNum = numeric(p.val)
	return p
}

// eval applies the condition: numeric when both sides parse as numbers,
// lexical otherwise.
func (p *pred) eval(v []byte) bool {
	if p.op == OpContains {
		return bytes.Contains(v, p.val)
	}
	if p.isNum {
		if a, ok := numeric(v); ok {
			return cmpOrd(p.op, compareFloat(a, p.num))
		}
	}
	return cmpOrd(p.op, bytes.Compare(v, p.val))
}

// floatByte marks the bytes a strconv.ParseFloat input can contain: digits,
// sign, point, underscore, hex digits and prefix, exponents, and the letters
// of inf, infinity and nan.
var floatByte = func() (t [256]bool) {
	for _, c := range []byte("0123456789+-._abcdefABCDEFxXpPiInNtTyY") {
		t[c] = true
	}
	return
}()

// numeric parses a column value for comparisons and aggregation. Its verdict
// is strconv.ParseFloat's, reached without it for the two common cases: a
// short run of digits is its own value (exact below 1e15), and a value holding
// a byte no float spelling contains — most words — fails without building the
// error ParseFloat would allocate. The conversion of anything else does not
// escape, so short values cost no allocation either.
func numeric(b []byte) (float64, bool) {
	digits := len(b) > 0 && len(b) <= 15
	var n int64 // wraps on longer runs, which do not use it
	for _, c := range b {
		if d := c - '0'; d <= 9 {
			n = n*10 + int64(d)
		} else if !floatByte[c] {
			return 0, false
		} else {
			digits = false
		}
	}
	if digits {
		return float64(n), true
	}
	v, err := strconv.ParseFloat(string(b), 64)
	return v, err == nil
}

// Precisions for appendNum: result columns keep 12 significant digits;
// partial aggregate states carry the shortest form that parses back to the
// same float64, so the reduce merges exactly the sums the maps folded.
const (
	resultPrec  = 12
	partialPrec = -1
)

// appendNum renders an aggregate value without trailing noise: integers
// print as integers.
func appendNum(dst []byte, v float64, prec int) []byte {
	if v == float64(int64(v)) {
		return strconv.AppendInt(dst, int64(v), 10)
	}
	return strconv.AppendFloat(dst, v, 'g', prec, 64)
}

// aggAcc is the mergeable partial state of one aggregate: count, sum, min
// and max of the numeric observations, on the wire as "count,sum,min,max"
// so each map's states merge in the reduce.
type aggAcc struct {
	cnt         int64
	sum, lo, hi float64
}

// inlineAggs is how many accumulators the reduce keeps on the stack.
const inlineAggs = 8

const emptyState = "0,0,0,0"

// aggPlan is a group-by stage's map side: its input source, the stored-row
// fields of its key and aggregate columns, the aggregates, and the compiled
// query's count of skipped non-numeric values.
type aggPlan struct {
	src                *source
	keyField, aggField []int
	aggs               []Agg
	skipped            *atomic.Int64
}

// split is the stage's MapFor: it borrows a table from lane's aggTables
// for one split and hands out the table's record function and flush.
func (p *aggPlan) split(_ string, lane *mapreduce.Lane) (mapreduce.MapFunc, func(mapreduce.CountedEmit)) {
	t := aggTables.Get(lane)
	if t == nil {
		t = newAggTable()
	}
	t.plan, t.lane = p, lane
	return t.mapFn, t.flushFn
}

// aggTable is one split's in-mapper combiner: every key the split's rows
// carry, in first-seen order, with len(aggs) accumulators each. A slot of
// the open-addressing table (linear probing) holds a key's hash and its
// group's index + 1 (0 = empty). A one-column key is the input block's own
// bytes; a wider key is copied into arena once, when it first appears. The
// table comes from its lane's stack of aggTables with its record function
// and flush already bound to it, and the flush resets it and puts it back
// there, so a split on a warm table allocates nothing.
type aggTable struct {
	plan  *aggPlan
	slots []aggSlot // a power of two long, at most half full
	keys  [][]byte
	accs  []aggAcc // group g's accumulators at [g*len(aggs), (g+1)*len(aggs))
	arena []byte
	key   []byte // a wider key, joined for its lookup; the flush's states
	lane  *mapreduce.Lane

	mapFn   mapreduce.MapFunc
	flushFn func(mapreduce.CountedEmit)
}

type aggSlot struct{ hash, group uint32 }

const aggMinSlots = 1 << 10

var (
	aggTables mapreduce.FreeList[aggTable] // flushed and reset
	aggSeed   = maphash.MakeSeed()
)

func newAggTable() *aggTable {
	t := &aggTable{
		slots: make([]aggSlot, aggMinSlots),
		keys:  make([][]byte, 0, aggMinSlots/2),
		accs:  make([]aggAcc, 0, aggMinSlots),
	}
	t.mapFn = func(_, line []byte, _ mapreduce.Emit) {
		var inline [inlineFields]span
		if row, sp, ok := t.plan.src.scan(line, inline[:0]); ok {
			t.add(row, sp)
		}
	}
	t.flushFn = t.flush
	return t
}

// add folds one row into its key's accumulators with the rules the per-row
// states and their merge had: COUNT observes every row (as a zero), a value
// that does not parse as a number ticks the skipped counter and contributes
// nothing, and a numeric one is one addition to the sum and one < and one >
// test against min and max.
func (t *aggTable) add(row []byte, sp spans) {
	p := t.plan
	var acc []aggAcc
	if len(p.keyField) == 1 {
		acc = t.group(sp.field(row, p.keyField[0]), len(p.aggs), false)
	} else {
		t.key = sp.appendFields(t.key[:0], row, p.keyField)
		acc = t.group(t.key, len(p.aggs), true)
	}
	for i := range acc {
		var v float64
		if p.aggs[i].Kind != AggCount {
			var ok bool
			if v, ok = numeric(sp.field(row, p.aggField[i])); !ok {
				p.skipped.Add(1)
				continue
			}
		}
		a := &acc[i]
		a.cnt++
		a.sum += v
		if v < a.lo {
			a.lo = v
		}
		if v > a.hi {
			a.hi = v
		}
	}
}

// group returns key's n accumulators, entering the key with empty ones when
// it is new; a borrowed key is copied before the table keeps it.
func (t *aggTable) group(key []byte, n int, borrowed bool) []aggAcc {
	h := uint32(maphash.Bytes(aggSeed, key))
	mask := uint32(len(t.slots) - 1)
	i := h & mask
	for ; t.slots[i].group != 0; i = (i + 1) & mask {
		if s := t.slots[i]; s.hash == h && bytes.Equal(t.keys[s.group-1], key) {
			g := int(s.group-1) * n
			return t.accs[g : g+n]
		}
	}
	if borrowed {
		lo := len(t.arena)
		t.arena = append(t.arena, key...)
		key = t.arena[lo:len(t.arena):len(t.arena)]
	}
	t.keys = append(t.keys, key)
	t.slots[i] = aggSlot{h, uint32(len(t.keys))}
	g := len(t.accs)
	for range n {
		t.accs = append(t.accs, aggAcc{lo: math.Inf(1), hi: math.Inf(-1)})
	}
	if 2*len(t.keys) == len(t.slots) {
		t.grow(n)
	}
	return t.accs[g : g+n]
}

// grow doubles the slots, re-entering every key by its stored hash, and
// the room of the keys and their n accumulators each with them: the table
// holds at most len(slots)/2 keys, so group's appends never reallocate
// them (append regrows a long slice by 1.25×), and a cold table, one per
// lane, allocates less on its way up.
func (t *aggTable) grow(n int) {
	old := t.slots
	t.slots = make([]aggSlot, 2*len(old))
	t.keys = append(make([][]byte, 0, len(t.slots)/2), t.keys...)
	t.accs = append(make([]aggAcc, 0, len(t.slots)/2*n), t.accs...)
	mask := uint32(len(t.slots) - 1)
	for _, s := range old {
		if s.group != 0 {
			i := s.hash & mask
			for t.slots[i].group != 0 {
				i = (i + 1) & mask
			}
			t.slots[i] = s
		}
	}
}

// flush emits one partial state per key, once, in first-seen order, then
// resets the table and returns it to aggTables; the split's record function
// and flush must not be called after.
func (t *aggTable) flush(emit mapreduce.CountedEmit) {
	n := len(t.plan.aggs)
	for g, key := range t.keys {
		t.key = appendStates(t.key[:0], t.accs[g*n:(g+1)*n])
		emit(key, t.key, 1)
	}
	clear(t.slots)
	clear(t.keys) // the keys pin their input blocks
	t.keys, t.accs, t.arena, t.plan = t.keys[:0], t.accs[:0], t.arena[:0], nil
	aggTables.Put(t.lane, t)
}

// appendStates appends merged partial states in wire form.
func appendStates(dst []byte, acc []aggAcc) []byte {
	for i, a := range acc {
		if i > 0 {
			dst = append(dst, sepByte)
		}
		if a.cnt == 0 {
			dst = append(dst, emptyState...)
			continue
		}
		dst = strconv.AppendInt(dst, a.cnt, 10)
		for _, v := range [...]float64{a.sum, a.lo, a.hi} {
			dst = appendNum(append(dst, ','), v, partialPrec)
		}
	}
	return dst
}

// mergeAggStates folds every value's states into one accumulator per
// aggregate, walking the state bytes in place, once per run. The
// accumulators are inline — the caller's stack — for the usual handful of
// aggregates.
func mergeAggStates(values mapreduce.Values, n int, inline *[inlineAggs]aggAcc) ([]aggAcc, error) {
	acc := inline[:]
	if n > len(acc) {
		acc = make([]aggAcc, n)
	}
	acc = acc[:n]
	for i := range acc {
		acc[i] = aggAcc{lo: math.Inf(1), hi: math.Inf(-1)}
	}
	for j := range values.Len() {
		v, times := values.At(j)
		rest, more := v, true
		for i := range acc {
			if !more {
				return nil, fmt.Errorf("query: corrupt agg state %q", v)
			}
			var state []byte
			state, rest, more = bytes.Cut(rest, sepBytes)
			cnt, nums, ok := bytes.Cut(state, comma)
			if !ok {
				return nil, fmt.Errorf("query: corrupt agg field %q", state)
			}
			c, err := strconv.ParseInt(string(cnt), 10, 64)
			if err != nil {
				return nil, err
			}
			sum, nums, ok1 := bytes.Cut(nums, comma)
			lo, hi, ok2 := bytes.Cut(nums, comma)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("query: corrupt agg field %q", state)
			}
			// Empty states (count 0: every value of the key in that split was
			// skipped as non-numeric) carry no observation: folding their placeholder min/max/sum would
			// resurrect the silent-zero bug this encoding exists to fix.
			if c == 0 {
				continue
			}
			s, okS := numeric(sum)
			l, okL := numeric(lo)
			h, okH := numeric(hi)
			if !okS || !okL || !okH {
				return nil, fmt.Errorf("query: corrupt agg field %q", state)
			}
			a := &acc[i]
			a.cnt += int64(times) * c
			// One addition per occurrence: s × times is not bit-identical
			// to times additions, and a sum must not depend on whether
			// identical states reached the reduce counted or one by one.
			for range times {
				a.sum += s
			}
			if l < a.lo {
				a.lo = l
			}
			if h > a.hi {
				a.hi = h
			}
		}
		if more {
			return nil, fmt.Errorf("query: corrupt agg state %q", v)
		}
	}
	return acc, nil
}

// appendSortKey appends an order-preserving byte encoding of a column value:
// numerics map through the IEEE-754 total-order trick to 16 hex digits
// (prefixed "n"), everything else sorts lexically after all numerics
// (prefixed "s"), matching SQL's numeric-before-string comparison.
func appendSortKey(dst, v []byte, desc bool) []byte {
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
		dst = append(dst, 'n')
		dst = append(dst, "0000000000000000"[len(hex):]...)
		return append(dst, hex...)
	}
	dst = append(dst, 's')
	if !desc {
		return append(dst, v...)
	}
	// Descending strings: invert each byte, then close with a 0xff
	// sentinel. The sentinel fixes prefix ordering — without it, the
	// inverted encoding of "ab" is a prefix of the inverted "abc" and
	// sorts before it, putting the shorter string first when descending
	// order demands it last. 0xff cannot collide with inverted content:
	// the catalog rejects NUL bytes in values, so no inverted byte is
	// ever 0xff.
	for _, ch := range v {
		dst = append(dst, 0xff-ch)
	}
	return append(dst, 0xff)
}
