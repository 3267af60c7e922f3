package mapreduce

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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
//   - Rec: 24 bytes per distinct pair — the key's first eight bytes as a
//     big-endian integer, then offset and length of key and value as uint32.
//   - counts: per partition, each Rec's multiplicity, parallel to the
//     index; nil while every count is 1.
//
// A map task folds the pairs its map function emits through one hash table
// (foldTable), so a partition holds each distinct (key, value) pair once
// with the number of times it was emitted: len(Partitions[p]) counts
// distinct pairs, while PartBytes and TotalBytes charge every occurrence.
// Byte-identical pairs are interchangeable, so a counted pair stands for its
// occurrences: reducers receive it as one run (see Values). Sorting and
// merging compare the prefix as one integer and look at bytes only on a
// prefix tie, the garbage collector has nothing to scan in an index, and a
// cached output is immutable: readers share it freely.

// Rec indexes one distinct intermediate pair inside its output's store.
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
	return a.prefix == b.prefix && a.klen == b.klen &&
		(a.klen <= 8 || bytes.Equal(as.at(a.koff+8, a.klen-8), bs.at(b.koff+8, b.klen-8)))
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
	counts    [][]uint32 // per partition; nil while every count is 1
	partBytes []int64
	table     *foldTable // folds repeated pairs; nil appends every pair
	split     string     // named when the offset space overflows
	limit     uint64     // maxOffset, lower under test
}

// newOutputBuilder starts an output of nparts partitions over input, with
// room for recsHint pairs in each before the first regrowth.
func newOutputBuilder(split string, input []byte, nparts, recsHint int, limit uint64) *outputBuilder {
	b := &outputBuilder{
		store:     store{input: input},
		parts:     make([][]Rec, nparts),
		counts:    make([][]uint32, nparts),
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
	// every word — shares those bytes: no copy, and the fold table and
	// compareRecs can tell two such values are equal from their offsets.
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

// add appends n occurrences of the pair (k, v) to partition p: as n more of
// the Rec p already holds for it when the fold table finds one, else as a
// new Rec. The value is placed first, so a pair that folds copies no key.
func (b *outputBuilder) add(p int, k, v []byte, n uint32) {
	r := Rec{prefix: keyPrefix(k), klen: uint32(len(k)), voff: b.place(v), vlen: uint32(len(v))}
	if b.table != nil && b.fold(p, k, r, n) {
		return
	}
	r.koff = b.place(k)
	part := b.parts[p]
	if len(part) == cap(part) {
		part = grown(part, 1)
	}
	if n != 1 || b.counts[p] != nil {
		b.counts[p] = append(b.counted(p), n)
	}
	b.parts[p] = append(part, r)
	b.partBytes[p] += int64(n) * r.Bytes()
}

// counted returns partition p's multiplicities, made all ones on first need.
func (b *outputBuilder) counted(p int) []uint32 {
	if b.counts[p] == nil {
		c := make([]uint32, len(b.parts[p]), cap(b.parts[p]))
		for i := range c {
			c[i] = 1
		}
		b.counts[p] = c
	}
	return b.counts[p]
}

// sortRecs orders partition p's index with compareRecs, its counts along
// with it. Sorting intermediate data is the hottest real computation in the
// whole simulator, hence slices.SortFunc (pdqsort, no reflection-based
// swaps) over the 24-byte entries — or over Rec-and-count pairs, copied in
// and out, when folding has left counts.
func (b *outputBuilder) sortRecs(p int) {
	s, idx, counts := &b.store, b.parts[p], b.counts[p]
	if counts == nil {
		slices.SortFunc(idx, func(x, y Rec) int { return compareRecs(x, s, y, s) })
		return
	}
	type countedRec struct {
		Rec
		n uint32
	}
	both := make([]countedRec, len(idx))
	for i, r := range idx {
		both[i] = countedRec{r, counts[i]}
	}
	slices.SortFunc(both, func(x, y countedRec) int { return compareRecs(x.Rec, s, y.Rec, s) })
	for i, c := range both {
		idx[i], counts[i] = c.Rec, c.n
	}
}

// foldTable is a map task's table of the distinct pairs its map function
// emitted, so that a repeat counts against the Rec of the pair's first
// occurrence. It is keyed on the key's bytes and the value's offsets
// (place gives every "1" WordCount emits one offset); a pair it misses is
// just not folded, which the merge takes as it takes any repeated pair.
// One table serves all of a task's partitions. It starts at foldMinSlots,
// grows to at most maxSlots, fills at most half of them, and a task whose
// pairs do not repeat drops it (see fold) after foldTrial pairs.
type foldTable struct {
	slots    []foldSlot // open addressing, linear probing; a power of two long
	shift    uint       // a hash's top bits pick its home slot
	maxSlots int        // foldMaxSlots, lower under test
	pairs    int        // pairs entered
	folded   int        // emits counted against an entered pair
}

// foldSlot names the Rec of one entered pair; hash 0 marks an empty slot.
type foldSlot struct{ hash, part, idx uint32 }

const (
	foldMinSlots = 1 << 11
	foldMaxSlots = 1 << 16 // 32 768 pairs: the whole 30 000-word corpus vocabulary
	foldTrial    = 1 << 10
)

func newFoldTable(maxSlots int) *foldTable {
	n := min(foldMinSlots, maxSlots)
	return &foldTable{slots: make([]foldSlot, n), shift: uint(32 - bits.TrailingZeros(uint(n))), maxSlots: maxSlots}
}

// fold counts n more occurrences of the pair r — key k, value already
// placed — against the Rec partition p holds for it, and reports whether
// it could. When it could not, it enters the pair as the Rec add appends
// next, while the table has room. Each time the entered pairs reach a power
// of two from foldTrial on, fewer folds than pairs mean the keys do not
// repeat, and the builder drops the table.
func (b *outputBuilder) fold(p int, k []byte, r Rec, n uint32) bool {
	t := b.table
	h := pairHash(r.prefix, k, r.voff, r.vlen)
	mask := uint32(len(t.slots) - 1)
	i := h >> t.shift
	for ; t.slots[i].hash != 0; i = (i + 1) & mask {
		s := t.slots[i]
		if s.hash != h || s.part != uint32(p) {
			continue
		}
		e := b.parts[p][s.idx]
		if e.prefix != r.prefix || e.klen != r.klen || e.voff != r.voff || e.vlen != r.vlen ||
			e.klen > 8 && !bytes.Equal(b.at(e.koff+8, e.klen-8), k[8:]) {
			continue
		}
		c := b.counted(p)
		if c[s.idx] > math.MaxUint32-n {
			return false
		}
		c[s.idx] += n
		b.partBytes[p] += int64(n) * r.Bytes()
		t.folded++
		return true
	}
	if 2*(t.pairs+1) > len(t.slots) {
		return false // full
	}
	t.slots[i] = foldSlot{hash: h, part: uint32(p), idx: uint32(len(b.parts[p]))}
	t.pairs++
	if t.pairs >= foldTrial && t.pairs&(t.pairs-1) == 0 && t.folded < t.pairs {
		b.table = nil
	} else if 2*t.pairs == len(t.slots) && len(t.slots) < t.maxSlots {
		t.grow()
	}
	return false
}

// grow doubles the table, re-entering every pair by its stored hash.
func (t *foldTable) grow() {
	old := t.slots
	t.slots, t.shift = make([]foldSlot, 2*len(old)), t.shift-1
	mask := uint32(len(t.slots) - 1)
	for _, s := range old {
		if s.hash != 0 {
			i := s.hash >> t.shift
			for t.slots[i].hash != 0 {
				i = (i + 1) & mask
			}
			t.slots[i] = s
		}
	}
}

// pairHash hashes what fold compares — the key's bytes and length, the
// value's offsets — to 32 bits, never 0. Each step multiplies by 2^64/φ,
// which carries every input bit into the top bits the table indexes by.
func pairHash(prefix uint64, k []byte, voff, vlen uint32) uint32 {
	const mul = 0x9e3779b97f4a7c15
	h := prefix
	for tail := k[min(len(k), 8):]; len(tail) > 0; tail = tail[min(len(tail), 8):] {
		h = h*mul ^ keyPrefix(tail)
	}
	h = (h*mul ^ uint64(voff)<<32 ^ uint64(vlen)<<8 ^ uint64(len(k))) * mul
	return uint32(h>>32) | 1
}

// combineFrom merges partition p of the outputs, feeds it through the
// combiner and leaves the result, sorted, as partition p of b. The merge is
// already grouped and sorted, so the combiner's pairs are appended as they
// come, without a fold table.
func (b *outputBuilder) combineFrom(outputs []*MapOutput, p int, c ReduceFunc) {
	newMerger(outputs, p).groups(c, func(k, v []byte) { b.add(p, k, v, 1) })
	b.sortRecs(p)
}

// output hands the accumulated pairs over as a MapOutput.
func (b *outputBuilder) output() *MapOutput {
	out := &MapOutput{store: b.store, Partitions: b.parts, counts: b.counts, PartBytes: b.partBytes}
	for _, n := range b.partBytes {
		out.TotalBytes += n
	}
	return out
}

// cursor is one sorted run being merged: its head pair, the pairs after
// it, and the output and partition whose store and counts they index (64
// bytes, which the heap swaps without a duffcopy).
type cursor struct {
	head Rec
	rest []Rec
	out  *MapOutput
	part int
}

// merger is a k-way merge over sorted runs — O(n log k) instead of
// re-sorting everything, which matters when a reduce pulls dozens of
// pre-sorted map outputs. It is a min-heap of cursors ordered by head pair,
// with hand-rolled sifts (container/heap would box every cursor through an
// interface; a heap of indexes into the cursors and a sift that moves a
// hole instead of swapping both measured no faster on BenchmarkExecReduce*).
// The merged sequence is never materialized: pop takes it one counted pair
// at a time, and groups drains it by key.
type merger []cursor

// newMerger starts a merge of partition part of every output.
func newMerger(outputs []*MapOutput, part int) merger {
	m := make(merger, 0, len(outputs))
	for _, mo := range outputs {
		if idx := mo.Partitions[part]; len(idx) > 0 {
			m = append(m, cursor{head: idx[0], rest: idx[1:], out: mo, part: part})
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
			if rp := m[r].head.prefix; rp < cp || rp == cp && compareRecs(m[r].head, &m[r].out.store, m[l].head, &m[l].out.store) < 0 {
				c, cp = r, rp
			}
		}
		if ip := m[i].head.prefix; ip < cp || ip == cp && compareRecs(m[c].head, &m[c].out.store, m[i].head, &m[i].out.store) >= 0 {
			return
		}
		m[i], m[c] = m[c], m[i]
		i = c
	}
}

// pop takes the least pair off the merge: the Rec, its store and its
// multiplicity. The merge must not be empty. Byte-identical pairs are
// interchangeable, so which run's copy of one pops first is not defined.
func (m *merger) pop() (r Rec, src *store, n uint32) {
	c := &(*m)[0]
	r, src, n = c.head, &c.out.store, 1
	if counts := c.out.counts[c.part]; counts != nil {
		n = counts[len(counts)-len(c.rest)-1] // counts run parallel to the whole partition
	}
	if len(c.rest) > 0 {
		c.head, c.rest = c.rest[0], c.rest[1:]
	} else {
		last := len(*m) - 1
		(*m)[0], *m = (*m)[last], (*m)[:last]
	}
	m.sift(0)
	return r, src, n
}

// groups drains the merge, handing fn each distinct key once with its values
// in merged order as runs: one per popped pair, its value with its count, so
// the heap is sifted once per (run, distinct pair) and no value is repeated.
// The view's slices are scratch reused between keys, sized for one run per
// cursor: fn must not retain it past the call (see Values), the same
// contract Hadoop's reduce iterable has.
func (m merger) groups(fn ReduceFunc, emit Emit) {
	vs := Values{make([][]byte, 0, len(m)), make([]int, 0, len(m))}
	for len(m) > 0 {
		first, src := m[0].head, &m[0].out.store
		vs.vals, vs.counts = vs.vals[:0], vs.counts[:0]
		for {
			r, s, n := m.pop()
			vs.vals, vs.counts = append(vs.vals, s.value(r)), append(vs.counts, int(n))
			if len(m) == 0 || !sameKey(first, src, m[0].head, &m[0].out.store) {
				break
			}
		}
		fn(src.key(first), vs, emit)
	}
}
