package mapreduce

import "fmt"

// Distinct reports how many distinct pairs partition p of mo indexes and
// how many occurrences their counts add up to.
func Distinct(mo *MapOutput, p int) (pairs, occurrences int) {
	for i := range mo.Partitions[p] {
		if c := mo.counts[p]; c != nil {
			occurrences += int(c[i])
		} else {
			occurrences++
		}
	}
	return len(mo.Partitions[p]), occurrences
}

// PlainWordCountSpec is WordCount whose splits map through wcTestMap, which
// emits (word, "1") for every occurrence, so each repeat reaches the merge
// as a pair of its own.
func PlainWordCountSpec(combiner bool) *JobSpec {
	spec := wcSpec(nil, "/out")
	spec.MapFor = wcPlainSplit
	if combiner {
		spec.Combine = spec.Reduce
	}
	return spec
}

func wcPlainSplit(string, *Lane) (MapFunc, func(CountedEmit)) { return wcTestMap, nil }

// SealedFootprint checks that mo was sealed exactly — every partition and
// its counts capacity-clipped, the slab's capacity its length — and returns
// the bytes it retains: its input block, slab, indexes and counts.
func SealedFootprint(mo *MapOutput) (int64, error) {
	if cap(mo.slab) != len(mo.slab) {
		return 0, fmt.Errorf("the slab holds %d bytes at capacity %d", len(mo.slab), cap(mo.slab))
	}
	n := int64(len(mo.input) + len(mo.slab))
	for p, idx := range mo.Partitions {
		if cap(idx) != len(idx) {
			return 0, fmt.Errorf("partition %d holds %d pairs at capacity %d", p, len(idx), cap(idx))
		}
		c := mo.counts[p]
		if cap(c) != len(c) || c != nil && len(c) != len(idx) {
			return 0, fmt.Errorf("partition %d: %d counts at capacity %d for %d pairs", p, len(c), cap(c), len(idx))
		}
		n += int64(len(idx))*recSize + int64(len(c))*4
	}
	return n, nil
}

// CacheBooks stores mo alone in a new MapCache and returns the bytes the
// cache books for it.
func CacheBooks(mo *MapOutput) int64 {
	c := NewMapCache(1 << 40)
	c.maps.store(cacheKey{file: "booked"}, mo)
	return c.Used()
}

// Snapshot renders everything a reader of mo sees — each partition's index
// and counts, and every indexed pair's key and value bytes — as one string.
func Snapshot(mo *MapOutput) string {
	var b []byte
	for p, idx := range mo.Partitions {
		for i, r := range idx {
			n := uint32(1)
			if c := mo.counts[p]; c != nil {
				n = c[i]
			}
			b = fmt.Appendf(b, "%d %+v ×%d %q %q\n", p, r, n, mo.key(r), mo.value(r))
		}
	}
	return string(b)
}

// UseHostLanes gives every Runtime created until restore runs n host lanes
// in place of laneCount, and lists their work on the worker pool however
// many simulations are live and whatever GOMAXPROCS is; 0 runs every task
// body inline at its join.
// restore puts back what was forced before, if anything (forcelanes.go).
func UseHostLanes(n int) (restore func()) {
	was := laneHook.Swap(int32(n + 1))
	return func() { laneHook.Store(was) }
}
