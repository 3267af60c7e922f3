package mapreduce

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// The flat record path. A map output does not hold a struct of two slices
// per intermediate pair; it holds bytes and a pointer-free index over them:
//
//   - store: the split's input block plus one slab. A key or value the map
//     function emitted as a sub-slice of the input block is indexed where it
//     lies; anything else is copied into the slab. The two share one offset
//     space: [0, len(input)) is the block, the slab follows.
//   - Rec: 24 bytes per pair — the key's first eight bytes as a big-endian
//     integer, then offset and length of key and value as uint32.
//
// Sorting and merging compare the prefix as one integer and look at bytes
// only on a prefix tie, the garbage collector has nothing to scan in an
// index, and a cached output is immutable: readers share it freely.

// Rec indexes one intermediate pair inside its output's store.
type Rec struct {
	prefix     uint64 // first 8 key bytes, big-endian, zero-padded
	koff, klen uint32
	voff, vlen uint32
}

// Bytes returns the serialized size of the pair, the unit charged to disks
// and networks. The +8 models the two length prefixes of Hadoop's IFile
// format.
func (r Rec) Bytes() int64 { return int64(r.klen) + int64(r.vlen) + 8 }

// recSize is the size of a Rec in memory.
const recSize = 24

// maxOffset bounds a store's offset space: every end offset must fit the
// index's uint32 fields.
const maxOffset = math.MaxUint32

// store is the byte storage a run of Recs points into.
type store struct {
	input []byte // the split's block; indexed in place, never written
	slab  []byte // emitted bytes that were not already inside input
}

// at resolves n bytes at offset off. A key or value never straddles the
// two regions, so off alone selects one.
func (s *store) at(off, n uint32) []byte {
	if int(off) < len(s.input) {
		return s.input[off : off+n]
	}
	o := int(off) - len(s.input)
	return s.slab[o : o+int(n)]
}

func (s *store) key(r Rec) []byte   { return s.at(r.koff, r.klen) }
func (s *store) value(r Rec) []byte { return s.at(r.voff, r.vlen) }

// keyPrefix packs the first eight key bytes for integer comparison.
func keyPrefix(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var p uint64
	for i, c := range k {
		p |= uint64(c) << (56 - 8*uint(i))
	}
	return p
}

// compareRecs orders pairs by key, breaking key ties by value, exactly as
// bytes.Compare on the key and then on the value would — so the order, and
// therefore every downstream byte, is fully deterministic without a stable
// sort. Unequal prefixes decide at once: a big-endian integer compare is a
// lexicographic compare of the padded bytes, and zero padding sorts a short
// key where bytes.Compare puts it, ahead of its extensions. On equal
// prefixes the keys agree on their first min(len, 8) bytes and any padding
// stands for real NUL bytes in the longer key, so unless both run past
// eight bytes the shorter key is a prefix of the longer and length alone
// decides; only two long keys need their tails compared.
func compareRecs(a Rec, as *store, b Rec, bs *store) int {
	if a.prefix != b.prefix {
		if a.prefix < b.prefix {
			return -1
		}
		return 1
	}
	if a.klen > 8 && b.klen > 8 {
		if c := bytes.Compare(as.at(a.koff+8, a.klen-8), bs.at(b.koff+8, b.klen-8)); c != 0 {
			return c
		}
	} else if a.klen != b.klen {
		if a.klen < b.klen {
			return -1
		}
		return 1
	}
	if as == bs && a.voff == b.voff && a.vlen == b.vlen {
		return 0 // the same bytes: see place
	}
	return bytes.Compare(as.value(a), bs.value(b))
}

// sameKey reports whether two pairs carry byte-identical keys.
func sameKey(a Rec, as *store, b Rec, bs *store) bool {
	return a.prefix == b.prefix && a.klen == b.klen && (a.klen <= 8 || sameTail(a, as, b, bs))
}

// sameTail compares what two equally long keys hold past their prefixes.
func sameTail(a Rec, as *store, b Rec, bs *store) bool {
	return bytes.Equal(as.at(a.koff+8, a.klen-8), bs.at(b.koff+8, b.klen-8))
}

// sortRecs orders one partition's index with compareRecs. Sorting
// intermediate data is the hottest real computation in the whole simulator,
// hence slices.SortFunc (pdqsort, no reflection-based swaps) over 24-byte
// entries.
func (s *store) sortRecs(idx []Rec) {
	slices.SortFunc(idx, func(a, b Rec) int { return compareRecs(a, s, b, s) })
}

// offsetWithin reports where p lies inside block when p's bytes are a
// sub-range of block's. It only compares the two addresses; nothing is read
// or written through them.
func offsetWithin(block, p []byte) (int, bool) {
	if len(p) > len(block) {
		return 0, false
	}
	// A p below block wraps to a huge offset and fails the same test as one
	// that starts inside block but runs past its end.
	off := uintptr(unsafe.Pointer(unsafe.SliceData(p))) - uintptr(unsafe.Pointer(unsafe.SliceData(block)))
	if off > uintptr(len(block)-len(p)) {
		return 0, false
	}
	return int(off), true
}

// grown reallocates s with room for at least need more elements, doubling
// the capacity: append's 1.25× regrowth of a large slice allocates (and
// zeroes) five times the final size on the way up, doubling twice. It is
// make and copy rather than slices.Grow because a fresh large span is known
// to be zero and skips the clear, while growslice always clears its tail
// (measured: the unique-key reduce is 18 % slower with slices.Grow).
func grown[T any](s []T, need int) []T {
	g := make([]T, len(s), max(2*cap(s), len(s)+need, 64))
	copy(g, s)
	return g
}

// outputBuilder accumulates emitted pairs into a flat map output.
type outputBuilder struct {
	store
	parts     [][]Rec
	partBytes []int64
	split     string // named when the offset space overflows
	limit     uint64 // maxOffset, lower under test
}

// newOutputBuilder starts an output of nparts partitions over input, with
// room for recsHint pairs in each before the first regrowth.
func newOutputBuilder(split string, input []byte, nparts, recsHint int, limit uint64) *outputBuilder {
	b := &outputBuilder{
		store:     store{input: input},
		parts:     make([][]Rec, nparts),
		partBytes: make([]int64, nparts),
		split:     split,
		limit:     limit,
	}
	if uint64(len(input)) > limit {
		b.overflow(0)
	}
	for p := range b.parts {
		b.parts[p] = make([]Rec, 0, recsHint)
	}
	return b
}

// overflow fails the task: offsets past the limit would wrap in the index
// and silently address the wrong bytes.
func (b *outputBuilder) overflow(n int) {
	panic(fmt.Sprintf("mapreduce: map output over split %q outgrew its %d-byte offset space (%d input + %d emitted + %d more bytes)",
		b.split, b.limit, len(b.input), len(b.slab), n))
}

// place returns the offset of p's bytes in the store: where they already
// lie when p is part of the input block, else that of a copy in the slab.
func (b *outputBuilder) place(p []byte) uint32 {
	if len(p) == 0 {
		return 0
	}
	if off, ok := offsetWithin(b.input, p); ok {
		return uint32(off)
	}
	// A repeat of what the slab already ends with — WordCount's "1" after
	// every word — shares those bytes: no copy, and compareRecs can tell two
	// such values are equal from their offsets alone.
	if tail := len(b.slab) - len(p); tail >= 0 && bytes.Equal(b.slab[tail:], p) {
		return uint32(len(b.input) + tail)
	}
	off := len(b.input) + len(b.slab)
	if uint64(off)+uint64(len(p)) > b.limit {
		b.overflow(len(p))
	}
	if cap(b.slab)-len(b.slab) < len(p) {
		b.slab = grown(b.slab, len(p))
	}
	b.slab = append(b.slab, p...)
	return uint32(off)
}

// add appends one pair to partition p.
func (b *outputBuilder) add(p int, k, v []byte) {
	r := Rec{
		prefix: keyPrefix(k),
		koff:   b.place(k), klen: uint32(len(k)),
		voff: b.place(v), vlen: uint32(len(v)),
	}
	part := b.parts[p]
	if len(part) == cap(part) {
		part = grown(part, 1)
	}
	b.parts[p] = append(part, r)
	b.partBytes[p] += r.Bytes()
}

// combineFrom merges partition p of the outputs, feeds it through the
// combiner and leaves the result, sorted, as partition p of b.
func (b *outputBuilder) combineFrom(outputs []*MapOutput, p int, c ReduceFunc) {
	emit := func(k, v []byte) { b.add(p, k, v) }
	newMerger(outputs, p).groups(func(key []byte, values [][]byte) { c(key, values, emit) })
	b.sortRecs(b.parts[p])
}

// output hands the accumulated pairs over as a MapOutput.
func (b *outputBuilder) output() *MapOutput {
	out := &MapOutput{store: b.store, Partitions: b.parts, PartBytes: b.partBytes}
	for _, n := range b.partBytes {
		out.TotalBytes += n
	}
	return out
}

// cursor is one sorted run being merged: its head pair, the pairs after
// it, and the store they index.
type cursor struct {
	head Rec
	rest []Rec
	src  *store
}

// merger is a k-way merge over sorted runs — O(n log k) instead of
// re-sorting everything, which matters when a reduce pulls dozens of
// pre-sorted map outputs. It is a min-heap of cursors ordered by head pair,
// with hand-rolled sifts (container/heap would box every cursor through an
// interface; a heap of indexes into the cursors and a sift that moves a
// hole instead of swapping both measured no faster on BenchmarkExecReduce*).
// The merged sequence is never materialized, and groups is the one way to
// drain it.
type merger []cursor

// newMerger starts a merge of partition part of every output.
func newMerger(outputs []*MapOutput, part int) merger {
	m := make(merger, 0, len(outputs))
	for _, mo := range outputs {
		if idx := mo.Partitions[part]; len(idx) > 0 {
			m = append(m, cursor{head: idx[0], rest: idx[1:], src: &mo.store})
		}
	}
	for i := len(m)/2 - 1; i >= 0; i-- {
		m.sift(i)
	}
	return m
}

// sift restores the min-heap property at index i.
func (m merger) sift(i int) {
	n := len(m)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		// Most heads differ in their prefixes: decide those here, without
		// the call.
		c, cp := l, m[l].head.prefix
		if r := l + 1; r < n {
			if rp := m[r].head.prefix; rp < cp || rp == cp && compareRecs(m[r].head, m[r].src, m[l].head, m[l].src) < 0 {
				c, cp = r, rp
			}
		}
		if ip := m[i].head.prefix; ip < cp || ip == cp && compareRecs(m[c].head, m[c].src, m[i].head, m[i].src) >= 0 {
			return
		}
		m[i], m[c] = m[c], m[i]
		i = c
	}
}

// groups drains the merge, yielding each distinct key once with all its
// values in merged order. It works per run-span, not per record: it takes
// the minimum cursor's head and then, in one loop over that run alone,
// every successor that is the identical pair — the same key, and the same
// value offsets, which is what place gives a value repeating the one before
// it. Those are minima too whatever the other runs hold, so the heap is
// sifted once per (run, distinct pair) and a single run never. Byte-identical
// pairs are interchangeable: which run's copy comes first is not defined.
//
// The values slice is scratch reused between keys (and pooled across
// calls): consumers — reducers and combiners — must not retain it past the
// yield, the same contract Hadoop's reduce iterable has. Retaining
// individual key or value byte slices is fine: they point into immutable
// stores.
func (m merger) groups(yield func(key []byte, values [][]byte)) {
	values, high := getVals(), 0
	for len(m) > 0 {
		first, src := m[0].head, m[0].src
		values = values[:0]
		for {
			c := &m[0]
			head, v, n := c.head, c.src.value(c.head), 0
			// The span test is spelled out because sameKey does not inline
			// (−40 % on BenchmarkExecReduce).
			for values = append(values, v); n < len(c.rest); n++ {
				r := &c.rest[n]
				if r.prefix != head.prefix || r.klen != head.klen || r.voff != head.voff || r.vlen != head.vlen ||
					head.klen > 8 && !sameTail(head, c.src, *r, c.src) {
					break
				}
				values = append(values, v)
			}
			if n < len(c.rest) {
				c.head, c.rest = c.rest[n], c.rest[n+1:]
			} else {
				last := len(m) - 1
				m[0], m = m[last], m[:last]
			}
			m.sift(0)
			if len(m) == 0 || !sameKey(first, src, m[0].head, m[0].src) {
				break
			}
		}
		high = max(high, len(values))
		yield(src.key(first), values)
	}
	putVals(values[:high])
}
