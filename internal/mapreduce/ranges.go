package mapreduce

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Key ranges (DESIGN.md §6, "Host lanes"). A reduce body cuts a large
// partition into one key range per lane of its Runtime and merges,
// groups, reduces and encodes each range on its own. Every pair of one key
// falls in one range and range i's keys all sort before range i+1's, so the
// ranges' lines laid end to end are the one-range reduce's part file.
//
// The cut keys are pairs of the partition's largest run at its quantiles,
// and every run is cut at each cut key's lower bound: before its first pair
// whose key is not below the cut key. A range encodes into its own window
// of the one output buffer, presized as a one-range reduce presizes it, one
// line per distinct pair of every run; the windows are closed up in place
// once every range is done. A range whose reducer outgrows its window grows
// a buffer of its own, and the part file is then assembled once, into a
// buffer of its exact length.
//
// The shuffle service's consolidation (consolidate.go) is the second body
// cut into pieces: one per partition, a partition cut into key ranges the
// same way when the job has fewer partitions than lanes. Both claim their
// pieces in order with claims, beside the pool workers that take the body's
// listings (hostLanes.pieceHelpers); a piece builds and allocates the same
// whichever goroutine runs it.

// splitPairs is the fewest pairs, summed over its runs, a reduce partition
// indexes when a body cuts it into ranges. BenchmarkExecReduceRanges on two
// cores, medians of five: from 10 000 pairs up two ranges take 18–37 % off
// one range's time, on unique TeraSort rows and on counted Zipf words
// alike; below it the gain ranges from nothing (4 500 Zipf pairs) to 20 %
// (5 000 TeraSort rows), as the helper's start and join weigh more.
const splitPairs = 10_000

// reduceSplit is one reduce partition cut into key ranges.
type reduceSplit struct {
	claims
	reduce ReduceFunc
	buf    []byte // the output buffer whose windows the ranges encode into
	ranges []keyRange
}

// keyRange is one range of a reduceSplit.
type keyRange struct {
	merge   merger
	window  int    // its window's bytes in buf
	out     []byte // its lines: in its window, or in its own buffer once they outgrew it
	records int64
}

// cutRuns cuts partition part of outputs into n key ranges, of which some
// may be empty, or into one when the partition is empty, and returns each
// range's merge, heapified, in dst's array when it has room.
func cutRuns(dst []merger, outputs []*MapOutput, part, n int) []merger {
	var largest []Rec
	var ls *store
	for _, mo := range outputs {
		if idx := mo.Partitions[part]; len(idx) > len(largest) {
			largest, ls = idx, &mo.store
		}
	}
	if len(largest) == 0 {
		n = 1
	}
	merges, k := slices.Grow(dst[:0], n)[:n], len(outputs)
	cursors := make([]cursor, 0, n*k)
	for i := range merges {
		merges[i] = cursors[i*k : i*k : (i+1)*k]
	}
	for _, mo := range outputs {
		idx, lo := mo.Partitions[part], 0
		for i := range merges {
			hi := len(idx)
			if i < n-1 {
				cut := largest[(i+1)*len(largest)/n]
				hi = lo + sort.Search(hi-lo, func(j int) bool { return compareKeys(idx[lo+j], &mo.store, cut, ls) >= 0 })
			}
			merges[i] = merges[i].run(mo, part, lo, hi)
			lo = hi
		}
	}
	for _, m := range merges {
		m.heapify()
	}
	return merges
}

// splitReduce cuts partition part of outputs into n key ranges (see
// cutRuns) and lays out their windows.
func splitReduce(spec *JobSpec, part int, outputs []*MapOutput, n int) *reduceSplit {
	merges := cutRuns(nil, outputs, part, n)
	s := &reduceSplit{reduce: spec.Reduce, ranges: make([]keyRange, len(merges))}
	size := 0
	for i, m := range merges {
		r := &s.ranges[i]
		r.merge = m
		for _, c := range m {
			r.window += int(c.head.klen) + int(c.head.vlen) + 2
			for _, rec := range c.rest {
				r.window += int(rec.klen) + int(rec.vlen) + 2
			}
		}
		size += r.window
	}
	s.buf = make([]byte, 0, size)
	off := 0
	for i := range s.ranges {
		r := &s.ranges[i]
		r.out = s.buf[off : off : off+r.window]
		off += r.window
	}
	return s
}

// piece merges, groups, reduces and encodes range i.
func (s *reduceSplit) piece(i int) {
	r := &s.ranges[i]
	r.merge.groups(s.reduce, r.emit)
}

// emit encodes one output pair as a tab-separated line of r.out.
func (r *keyRange) emit(k, v []byte) {
	buf := r.out
	if n := len(k) + len(v) + 2; cap(buf)-len(buf) < n {
		buf = grown(buf, n)
	}
	buf = append(buf, k...)
	buf = append(buf, '\t')
	buf = append(buf, v...)
	r.out = append(buf, '\n')
	r.records++
}

// run reduces every range, with up to helpers pool workers taking some of
// them, and returns the part file, or how the lowest range whose reducer
// panicked died.
func (s *reduceSplit) run(helpers int) (Reduced, *AttemptError) {
	if died := s.claims.run(s, len(s.ranges), helpers); died != nil {
		return Reduced{}, died
	}
	return s.assemble(), nil
}

// claims hands out the pieces of one body — a reduce's key ranges, a
// consolidation's pieces (consolidate.go) — in order to whoever runs next.
type claims struct {
	next    atomic.Int32 // the first piece nobody claimed
	failed  atomic.Bool  // a piece panicked: later pieces need not run
	p       interface{ piece(i int) }
	n       int
	helpers sync.WaitGroup // listings not withdrawn whose workers have not left
	mu      sync.Mutex
	died    *AttemptError // how the lowest piece that panicked died
	diedAt  int
}

// run runs pieces 0 to n-1 of p, listing c for up to helpers pool workers
// (at most helpers+1 running) beside the caller; out of pieces, the caller
// withdraws what no worker took and waits for those that did, then returns
// how the lowest piece that panicked died.
func (c *claims) run(p interface{ piece(i int) }, n, helpers int) *AttemptError {
	c.p, c.n = p, n
	k := min(helpers, n-1)
	if k <= 0 {
		c.work()
		return c.died
	}
	c.helpers.Add(k)
	workers.list(c, k, k+1)
	c.work()
	c.helpers.Add(-workers.withdraw(c))
	c.helpers.Wait()
	return c.died
}

// serve is one pool worker's turn at c's pieces.
func (c *claims) serve() {
	defer c.helpers.Done()
	c.work()
}

// work claims pieces in order and runs each, until none is left or one
// panicked. A panic fails its piece, not the process; the pieces after it
// are not needed, and every piece before it was claimed already.
func (c *claims) work() {
	for !c.failed.Load() {
		i := int(c.next.Add(1)) - 1
		if i >= c.n {
			return
		}
		if _, died := contain(func() bool { c.p.piece(i); return true }); died != nil {
			c.mu.Lock()
			if c.died == nil || i < c.diedAt {
				c.died, c.diedAt = died, i
			}
			c.mu.Unlock()
			c.failed.Store(true)
		}
	}
}

// assemble lays the ranges' lines end to end: in place when every range
// kept to its window, moving each down to where the one before it ended
// (a range that filled the windows before it exactly is in place already),
// else once into a buffer of the part file's exact length. A single range's
// lines are the part file as they are.
func (s *reduceSplit) assemble() Reduced {
	if len(s.ranges) == 1 {
		r := &s.ranges[0]
		return Reduced{Encoded: r.out, Records: r.records}
	}
	var out Reduced
	size, outgrew := 0, false
	for i := range s.ranges {
		r := &s.ranges[i]
		out.Records += r.records
		size += len(r.out)
		outgrew = outgrew || cap(r.out) != r.window // grown is all that changes it
	}
	if outgrew {
		out.Encoded = make([]byte, 0, size)
		for i := range s.ranges {
			out.Encoded = append(out.Encoded, s.ranges[i].out...)
		}
		return out
	}
	end, window := 0, 0
	for i := range s.ranges {
		r := &s.ranges[i]
		if window != end {
			copy(s.buf[end:cap(s.buf)], r.out) // a memmove down within buf
		}
		end += len(r.out)
		window += r.window
	}
	out.Encoded = s.buf[:end]
	return out
}
