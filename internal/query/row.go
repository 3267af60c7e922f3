package query

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"mrapid/internal/mapreduce"
)

// The row codec. Between a stage's input line and the bytes it emits a row
// is never a []string: it is the line's own bytes plus the spans of its
// fields, computed once. Keys, filter operands and aggregate inputs are
// sub-slices of the line; whatever a closure has to build — a projected row,
// a partial state, a sort key — is appended into one pooled buffer and handed
// to emit, which copies it. The bytes are the ones the string codec produced:
// same separator, same number renderings, same sort keys.

const sepByte = 0x1f // colSep as a byte

var (
	sepBytes = []byte{sepByte}
	comma    = []byte{','}
)

// span is one field's extent inside its row.
type span struct{ lo, hi int }

// spans is a row split once: its fields' extents. The row's bytes travel
// beside it, not in one struct with it — escape analysis does not tell a
// struct's fields apart, and a field handed to emit would drag the spans to
// the heap with it.
type spans []span

// inlineFields is how many spans fit the array a map closure keeps on its
// stack; splitFields spills wider rows to the heap.
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
// mutable; each call borrows a buffer for its own duration. A new one starts wide enough for the
// usual row, so a pool the collector emptied refills in one step.
type scratch struct{ b []byte }

var scratchPool = sync.Pool{New: func() any { return &scratch{b: make([]byte, 0, 256)} }}

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
// same float64, so a sum does not depend on how many combine hops it crossed.
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
// so map-side combining works.
type aggAcc struct {
	cnt         int64
	sum, lo, hi float64
}

// inlineAggs is how many accumulators combine and reduce keep on the stack.
const inlineAggs = 8

const emptyState = "0,0,0,0"

// appendRowStates appends one row's partial states, one per aggregate. A
// value that fails to parse as a number contributes an empty state (count 0)
// instead of silently aggregating as 0, and ticks the skipped counter; COUNT
// counts rows regardless.
func appendRowStates(dst, row []byte, s spans, aggField []int, aggs []Agg, skipped *atomic.Int64) []byte {
	for i := range aggs {
		if i > 0 {
			dst = append(dst, sepByte)
		}
		if aggs[i].Kind == AggCount {
			dst = append(dst, "1,0,0,0"...)
			continue
		}
		v, ok := numeric(s.field(row, aggField[i]))
		if !ok {
			if skipped != nil {
				skipped.Add(1)
			}
			dst = append(dst, emptyState...)
			continue
		}
		// One observation is its own sum, min and max.
		dst = append(dst, "1,"...)
		lo := len(dst)
		dst = appendNum(dst, v, partialPrec)
		hi := len(dst)
		dst = append(dst, ',')
		dst = append(dst, dst[lo:hi]...)
		dst = append(dst, ',')
		dst = append(dst, dst[lo:hi]...)
	}
	return dst
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
			// Empty states (count 0, from skipped non-numeric values) carry
			// no observation: folding their placeholder min/max/sum would
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
			// to times additions, and a sum must not depend on how many
			// rows the map side folded.
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
