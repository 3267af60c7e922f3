package mapreduce

import (
	"bytes"
	"cmp"
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
//   - Rec: 24 bytes per indexed pair — the key's first eight bytes as a
//     big-endian integer, then offset and length of key and value as uint32.
//   - counts: per partition, each Rec's multiplicity, parallel to the
//     index; nil while every count is 1.
//
// A pair is indexed once per add, with the count add is given: a map flush
// that counted its pairs in the mapper (WordCount's word table, a group-by
// stage's aggregation table) hands over each distinct pair once with its
// multiplicity, and a record function's repeats are indexed one by one,
// which the merge takes as it takes any repeated pair. len(Partitions[p])
// counts indexed pairs; PartBytes and TotalBytes charge every occurrence.
// Byte-identical pairs are interchangeable, so a counted pair stands for its
// occurrences: reducers receive it as one run (see Values). Sorting is a
// radix sort on the prefix's bytes and merging compares the prefix as one
// integer; both look at key bytes only on a prefix tie. The garbage
// collector has nothing to scan in an index, and a cached output is
// immutable: readers share it freely.
//
// An output is built in scratch and then sealed. The outputBuilder a map
// task adds to comes from builders, a free list, with the per-partition
// index, counts and slab buffers an earlier build grew: a warm builder
// neither guesses sizes nor regrows. output seals what it holds — every
// partition's index copied into one exactly sized array, each partition a
// capacity-clipped window of it, the counts the same way, the slab copied
// at its exact length — so an output owns no scratch and retains exactly
// its bytes, which is what the MapCache books. The builder then goes back
// to the list. A single-reduce split of fixed-length records knows its pair
// count, so its partition is allocated at that size and handed over
// without a copy.

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

// keyPrefix packs the first eight key bytes for integer comparison. A key
// of four to seven bytes is two overlapping big-endian loads, its first
// four bytes and its last four shifted down into place after them.
func keyPrefix(k []byte) uint64 {
	if n := len(k); n >= 8 {
		return binary.BigEndian.Uint64(k)
	} else if n >= 4 {
		return uint64(binary.BigEndian.Uint32(k))<<32 |
			uint64(binary.BigEndian.Uint32(k[n-4:]))<<(64-8*uint(n))
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
	if c := compareKeys(a, as, b, bs); c != 0 {
		return c
	}
	if as == bs && a.voff == b.voff && a.vlen == b.vlen {
		return 0 // the same bytes: see place
	}
	return bytes.Compare(as.value(a), bs.value(b))
}

// compareKeys orders two pairs by key alone, as compareRecs does before it
// looks at values.
func compareKeys(a Rec, as *store, b Rec, bs *store) int {
	if a.prefix != b.prefix {
		if a.prefix < b.prefix {
			return -1
		}
		return 1
	}
	if a.klen > 8 && b.klen > 8 {
		return bytes.Compare(as.at(a.koff+8, a.klen-8), bs.at(b.koff+8, b.klen-8))
	}
	return cmp.Compare(a.klen, b.klen)
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

// outputBuilder accumulates emitted pairs into a flat map output. It is
// scratch: take one with newOutputBuilder, seal what it holds with output,
// and hand it back with release.
type outputBuilder struct {
	store
	parts     [][]Rec
	counts    [][]uint32 // per partition; nil while every count is 1
	partBytes []int64
	split     string // named when the offset space overflows
	limit     uint64 // maxOffset, lower under test
	exact     bool   // parts[0] was allocated at the split's pair count, not taken from recBufs
	lane      *Lane  // whose builders it came from and goes back to

	// emit and emitCounted add the pairs a map emits, partitioned by part,
	// and scan hands each record the format scans to mapFn, counting it in
	// records; they are bound when the builder is made, so a split
	// allocates none of them.
	part        PartitionFunc
	emit        Emit
	emitCounted CountedEmit
	mapFn       MapFunc
	scan        func(k, v []byte)
	records     int64

	// What each partition's index and counts grew into, kept for the next
	// build (the slab keeps its own).
	recBufs   [][]Rec
	countBufs [][]uint32
}

// builders are the released output builders, every one's buffers as large
// as its largest build made them.
var builders FreeList[outputBuilder]

// newOutputBuilder starts an output of nparts partitions over input on a
// builder from lane's builders, or a new one.
func newOutputBuilder(lane *Lane, split string, input []byte, nparts int, limit uint64) *outputBuilder {
	b := builders.Get(lane)
	if b == nil {
		b = new(outputBuilder)
		b.emit = func(k, v []byte) { b.add(partitionOf(b.part, k, len(b.parts)), k, v, 1) }
		b.emitCounted = func(k, v []byte, n int) {
			if n < 1 || n > math.MaxUint32 {
				panic(fmt.Sprintf("mapreduce: a map flush emitted a pair %d times", n))
			}
			b.add(partitionOf(b.part, k, len(b.parts)), k, v, uint32(n))
		}
		b.scan = func(k, v []byte) {
			b.records++
			b.mapFn(k, v, b.emit)
		}
	}
	b.input, b.split, b.limit, b.exact, b.lane, b.records = input, split, limit, false, lane, 0
	if uint64(len(input)) > limit {
		b.overflow(0)
	}
	for len(b.recBufs) < nparts {
		b.recBufs, b.countBufs = append(b.recBufs, nil), append(b.countBufs, nil)
	}
	b.parts = append(b.parts[:0], b.recBufs[:nparts]...)
	b.counts = slices.Grow(b.counts[:0], nparts)[:nparts]
	b.partBytes = slices.Grow(b.partBytes[:0], nparts)[:nparts]
	clear(b.partBytes)
	b.slab = b.slab[:0]
	return b
}

// release hands b back to builders, keeping what its buffers grew into.
// Nothing may read b, or a view of it, after; a builder whose build
// panicked is never released.
func (b *outputBuilder) release() {
	for p, part := range b.parts {
		if cap(part) > cap(b.recBufs[p]) {
			b.recBufs[p] = part[:0]
		}
		if c := b.counts[p]; cap(c) > cap(b.countBufs[p]) {
			b.countBufs[p] = c[:0]
		}
	}
	clear(b.parts)
	clear(b.counts)
	b.input, b.split, b.part, b.mapFn = nil, "", nil, nil
	builders.Put(b.lane, b)
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
	// every word — shares those bytes: no copy, and compareRecs can tell
	// two such values are equal from their offsets.
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

// add appends n occurrences of the pair (k, v) to partition p as one Rec.
func (b *outputBuilder) add(p int, k, v []byte, n uint32) {
	r := Rec{prefix: keyPrefix(k), voff: b.place(v), vlen: uint32(len(v)), koff: b.place(k), klen: uint32(len(k))}
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
		c := b.countBufs[p][:0]
		if cap(c) < cap(b.parts[p]) {
			c = make([]uint32, 0, cap(b.parts[p]))
		}
		c = c[:len(b.parts[p])]
		for i := range c {
			c[i] = 1
		}
		b.counts[p] = c
	}
	return b.counts[p]
}

// sortRecs orders partition p's index with compareRecs, its counts along
// with it. Sorting intermediate data is the hottest real computation in the
// whole simulator, and almost every pair is ordered by its prefix alone: an
// index the merge already ordered (combineFrom's) is left as it is, and any
// other is radix-sorted in place on the prefix bytes, so compareRecs decides
// only between pairs that share all eight of them.
func (b *outputBuilder) sortRecs(p int) {
	sortIndex(b.parts[p], b.counts[p], &b.store)
}

// sortIndex orders idx over s, and counts with it when non-nil, as sortRecs
// orders a partition.
func sortIndex(idx []Rec, counts []uint32, s *store) {
	for i := 1; i < len(idx); i++ {
		if recLess(idx[i], idx[i-1], s) {
			radixSort(idx, counts, s, 0)
			return
		}
	}
}

// recLess reports whether a sorts before b, both in s.
func recLess(a, b Rec, s *store) bool {
	return a.prefix < b.prefix || a.prefix == b.prefix && compareRecs(a, s, b, s) < 0
}

// insertionMax is the largest bucket radixSort leaves to an insertion sort.
const insertionMax = 32

// radixSort orders idx, and counts with it when non-nil, given that every
// pair in idx shares the first level bytes of its prefix. It is an American
// flag sort: one histogram pass over the next prefix byte, a cycle
// permutation that moves each pair (and its count) straight into its
// bucket, then each bucket on the byte after. A level whose pairs all share
// the byte is skipped without moving anything; buckets of at most
// insertionMax pairs are insertion-sorted, and a larger one left with all
// eight bytes equal goes to sortTies. It needs no buffer beside idx.
func radixSort(idx []Rec, counts []uint32, s *store, level int) {
	for len(idx) > insertionMax {
		if level == 8 {
			sortTies(idx, counts, s)
			return
		}
		shift := uint(56 - 8*level)
		var end [256]uint32
		for _, r := range idx {
			end[byte(r.prefix>>shift)]++
		}
		if int(end[byte(idx[0].prefix>>shift)]) == len(idx) {
			level++
			continue
		}
		var next [256]uint32
		sum := uint32(0)
		for d, n := range end {
			next[d] = sum
			sum += n
			end[d] = sum
		}
		for d := range next {
			for i := next[d]; i < end[d]; i = next[d] {
				r := idx[i]
				var n uint32
				if counts != nil {
					n = counts[i]
				}
				// Carry r to its bucket's next free slot and pick up what
				// lay there, until the pair in hand belongs in slot i.
				for e := byte(r.prefix >> shift); e != byte(d); e = byte(r.prefix >> shift) {
					j := next[e]
					next[e]++
					r, idx[j] = idx[j], r
					if counts != nil {
						n, counts[j] = counts[j], n
					}
				}
				idx[i] = r
				if counts != nil {
					counts[i] = n
				}
				next[d]++
			}
		}
		start := uint32(0)
		for _, e := range end {
			if e-start > 1 {
				var c []uint32
				if counts != nil {
					c = counts[start:e]
				}
				radixSort(idx[start:e], c, s, level+1)
			}
			start = e
		}
		return
	}
	insertionSort(idx, counts, s)
}

// insertionSort orders a bucket of at most insertionMax pairs, and counts
// with it when non-nil.
func insertionSort(idx []Rec, counts []uint32, s *store) {
	for i := 1; i < len(idx); i++ {
		r := idx[i]
		j := i
		for ; j > 0 && recLess(r, idx[j-1], s); j-- {
			idx[j] = idx[j-1]
		}
		idx[j] = r
		if counts != nil && j < i {
			n := counts[i]
			copy(counts[j+1:i+1], counts[j:i])
			counts[j] = n
		}
	}
}

// sortTies orders a bucket whose pairs share one prefix, which only
// compareRecs can do: pdqsort, O(k log k) however the keys' tails look, so
// the sort is never quadratic — over Rec-and-count pairs, copied in and
// out, when the bucket is counted. This copy is the one allocation
// sortRecs can make.
func sortTies(idx []Rec, counts []uint32, s *store) {
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

// combineFrom feeds merge m through the combiner and leaves the result,
// sorted, as partition p of b. Over one run — a map's own pairs — it makes
// room for one pair per input pair first, so a cold partition grows once
// rather than by doublings.
func (b *outputBuilder) combineFrom(m merger, p int, c ReduceFunc) {
	if len(m) == 1 {
		if n := 1 + len(m[0].rest); cap(b.parts[p]) < n {
			b.parts[p] = grown(b.parts[p], n)
		}
	}
	m.groups(c, func(k, v []byte) { b.add(p, k, v, 1) })
	b.sortRecs(p)
}

// output seals the accumulated pairs into a MapOutput that shares nothing
// with b but the input block (see seal).
func (b *outputBuilder) output() *MapOutput { return seal(b) }

// seal copies what bs hold into one MapOutput over the first's input block,
// partition by partition and each partition builder by builder: the indexes
// into one exactly sized array, each partition a capacity-clipped window of
// it, the counts the same way, and the slabs end to end at their exact
// length, the offsets of each builder's pairs rebased by where its slab
// starts. Only the first builder may hold an input block (several are a
// consolidation's pieces, which have none). A single builder's exact
// partition that came out full is handed over as it is.
func seal(bs ...*outputBuilder) *MapOutput {
	b0, n := bs[0], len(bs[0].parts)
	out := &MapOutput{store: store{input: b0.input}, Partitions: make([][]Rec, n), counts: make([][]uint32, n),
		PartBytes: make([]int64, n)}
	handed := len(bs) == 1 && b0.exact && len(b0.parts[0]) == cap(b0.parts[0]) && b0.counts[0] == nil
	if handed {
		out.Partitions[0], b0.parts[0] = b0.parts[0], nil // release must not keep it
	}
	// counted reports whether partition p needs counts: some builder has them.
	counted := func(p int) bool {
		return slices.ContainsFunc(bs, func(b *outputBuilder) bool { return b.counts[p] != nil })
	}
	var recs, ncounts, slab int
	for p := range n {
		k := 0
		for _, b := range bs {
			k += len(b.parts[p])
			out.PartBytes[p] += b.partBytes[p]
		}
		recs += k
		if counted(p) {
			ncounts += k
		}
		out.TotalBytes += out.PartBytes[p]
	}
	for _, b := range bs {
		slab += len(b.slab)
	}
	if uint64(len(b0.input)+slab) > maxOffset {
		panic(fmt.Sprintf("mapreduce: %d outputs sealed together outgrew their %d-byte offset space (%d bytes)", len(bs), uint64(maxOffset), slab))
	}
	idx, cnt := make([]Rec, 0, recs), make([]uint32, 0, ncounts)
	for p := range n {
		if p == 0 && handed {
			continue
		}
		lo, clo, c, base := len(idx), len(cnt), counted(p), uint32(0)
		for _, b := range bs {
			if part := b.parts[p]; base == 0 {
				idx = append(idx, part...)
			} else {
				for _, r := range part {
					r.koff, r.voff = r.koff+base, r.voff+base
					idx = append(idx, r)
				}
			}
			if c && len(b.parts[p]) > 0 {
				cnt = append(cnt, b.counted(p)...)
			}
			base += uint32(len(b.slab))
		}
		out.Partitions[p] = idx[lo:len(idx):len(idx)]
		if c {
			out.counts[p] = cnt[clo:len(cnt):len(cnt)]
		}
	}
	if slab > 0 {
		out.slab = make([]byte, 0, slab) // not bytes.Clone: append rounds its capacity up
		for _, b := range bs {
			out.slab = append(out.slab, b.slab...)
		}
	}
	return out
}

// view returns what b holds as a MapOutput without sealing it, for a merge
// that runs before b is released: the view aliases b's scratch.
func (b *outputBuilder) view() *MapOutput {
	return &MapOutput{store: b.store, Partitions: b.parts, counts: b.counts}
}

// cursor is one sorted run being merged: its head pair, the pairs after
// it, the output and partition whose store and counts they index, and where
// the run ends in that partition, which places the counts of a run that is
// only part of it (64 bytes, which the heap swaps without a duffcopy).
type cursor struct {
	head      Rec
	rest      []Rec
	out       *MapOutput
	part, end uint32
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
		m = m.run(mo, part, 0, len(mo.Partitions[part]))
	}
	m.heapify()
	return m
}

// run adds pairs [lo, hi) of partition part of mo to a merge that heapify
// has not started yet.
func (m merger) run(mo *MapOutput, part, lo, hi int) merger {
	if lo == hi {
		return m
	}
	idx := mo.Partitions[part]
	return append(m, cursor{head: idx[lo], rest: idx[lo+1 : hi], out: mo, part: uint32(part), end: uint32(hi)})
}

// heapify orders the runs into a min-heap by head pair.
func (m merger) heapify() {
	for i := len(m)/2 - 1; i >= 0; i-- {
		m.sift(i)
	}
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
		n = counts[int(c.end)-len(c.rest)-1] // counts run parallel to the whole partition
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
