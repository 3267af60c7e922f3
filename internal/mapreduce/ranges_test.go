package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// A differential test of the reduce's key ranges: cut into one to four
// ranges, run in order or with pool workers helping, a reduce must commit the
// one-range reduce's bytes and records, and a consolidation of the same
// runs the uncut consolidation's pairs (checkConsolidationRanges). Two reducers read every run set:
// identityReduce, whose lines show the merged order of values as well as of
// keys and outgrow their window on counted pairs (a counted pair presizes
// one line and emits one per occurrence), and countReduce, one line per key,
// which only a key straddling two ranges would print twice.

// countReduce emits each key once with its number of occurrences.
func countReduce(k []byte, vs Values, emit Emit) {
	n := 0
	for i := range vs.Len() {
		_, c := vs.At(i)
		n += c
	}
	emit(k, strconv.AppendInt(nil, int64(n), 10))
}

func checkRanges(t *testing.T, runs [][]kv, halves int) {
	t.Helper()
	outs := make([]*MapOutput, len(runs))
	for i, run := range runs {
		outs[i] = runOutput(run, len(run)*halves/2)
	}
	checkConsolidationRanges(t, outs, halves)
	for _, reduce := range []ReduceFunc{identityReduce, countReduce} {
		spec := &JobSpec{NumReduces: 1, Reduce: reduce}
		want := ExecReduce(spec, 0, outs)
		for n := 1; n <= 4; n++ {
			for _, helpers := range []int{0, n - 1} {
				got, died := splitReduce(spec, 0, outs, n).run(helpers)
				if died != nil || !bytes.Equal(got.Encoded, want.Encoded) || got.Records != want.Records {
					t.Fatalf("%d/2 counted, %d ranges (%d helpers): %d records %q (died: %v), want %d %q",
						halves, n, helpers, got.Records, got.Encoded, died, want.Records, want.Encoded)
				}
			}
		}
	}
}

// rangeShapes are run sets that take the cut down its different paths, at
// most 500 pairs each.
var rangeShapes = []struct {
	name string
	runs func(rng *rand.Rand) [][]kv
}{
	{"duplicate keys across runs", func(rng *rand.Rand) [][]kv {
		zipf := rand.NewZipf(rng, 1.2, 1, 29)
		return fillRuns(3, func(int) int { return 120 }, func(int) kv { return kv{fmt.Sprintf("w%d", zipf.Uint64()), "1"} })
	}},
	{"keys shorter than 8 bytes", func(rng *rand.Rand) [][]kv {
		keys := []string{"", "a", "ab", "abc", "a\x00", "b", "ba"}
		return fillRuns(4, func(int) int { return 40 + rng.Intn(40) }, func(int) kv {
			return kv{keys[rng.Intn(len(keys))], []string{"", "x", "y"}[rng.Intn(3)]}
		})
	}},
	{"equal 8-byte prefixes", func(rng *rand.Rand) [][]kv {
		tails := []string{"", "a", "b", "ab", "\x00", "a\x00", "tail-of-some-length"}
		return fillRuns(3, func(int) int { return 80 }, func(int) kv { return kv{"sharedpf" + tails[rng.Intn(len(tails))], "1"} })
	}},
	{"ties at a cut key", func(rng *rand.Rand) [][]kv {
		// The largest run is nearly all one key, so every quantile of it
		// cuts at that key; the other runs hold it too.
		return fillRuns(3, func(run int) int { return 200 - 80*run }, func(run int) kv {
			switch r := rng.Intn(20); {
			case r == 0:
				return kv{"a", "1"}
			case r == 1:
				return kv{"zz", "1"}
			default:
				return kv{"tie", fmt.Sprint(run)}
			}
		})
	}},
	{"unique keys", func(rng *rand.Rand) [][]kv {
		return fillRuns(4, func(int) int { return 100 }, func(int) kv { return kv{fmt.Sprintf("k%06d", rng.Intn(1_000_000)), "v"} })
	}},
	{"one run", func(rng *rand.Rand) [][]kv {
		return fillRuns(1, func(int) int { return 7 }, func(int) kv { return kv{fmt.Sprint(rng.Intn(3)), "1"} })
	}},
}

func TestReduceRangesMatchOneRange(t *testing.T) {
	for _, shape := range rangeShapes {
		for _, halves := range countedHalves {
			t.Run(fmt.Sprintf("%s/%d-2 counted", shape.name, halves), func(t *testing.T) {
				checkRanges(t, shape.runs(rand.New(rand.NewSource(1))), halves)
			})
		}
	}
}

// FuzzReduceRanges feeds checkRanges arbitrary run sets, in FuzzMergeGroups'
// input format: lines of "<run byte><key>\t<value>", a line's first byte
// modulo nruns picking its run. counted picks the counted share of the
// runs' builds. An execution stays small: the input is at most 8 KiB and the
// seeds are rangeShapes, at most 500 pairs each, once at every counted
// share.
func FuzzReduceRanges(f *testing.F) {
	for _, shape := range rangeShapes {
		runs := shape.runs(rand.New(rand.NewSource(1)))
		var text strings.Builder
		for i, run := range runs {
			for _, p := range run {
				fmt.Fprintf(&text, "%c%s\t%s\n", i, p.k, p.v)
			}
		}
		for counted := range countedHalves {
			f.Add([]byte(text.String()), uint8(len(runs)), uint8(counted))
		}
	}
	f.Fuzz(func(t *testing.T, text []byte, nruns, counted uint8) {
		if nruns == 0 || nruns > 16 || len(text) > 8<<10 {
			return
		}
		runs := make([][]kv, nruns)
		for _, line := range bytes.Split(text, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			k, v, _ := bytes.Cut(line[1:], []byte("\t"))
			run := int(line[0]) % int(nruns)
			runs[run] = append(runs[run], kv{string(k), string(v)})
		}
		checkRanges(t, runs, countedHalves[int(counted)%len(countedHalves)])
	})
}

// When two ranges panic the lowest one's panic fails the reduce, whichever
// panicked first: the reducer of range 0's last key waits until range 1's
// first key has panicked on the other goroutine, then panics itself.
func TestLowestRangePanicWins(t *testing.T) {
	run := make([]kv, 100)
	for i := range run {
		run[i] = kv{fmt.Sprintf("k%04d", i), "v"}
	}
	outs := []*MapOutput{runOutput(run, 0)}
	highPanicked := make(chan struct{})
	spec := &JobSpec{NumReduces: 1, Reduce: func(k []byte, _ Values, _ Emit) {
		switch string(k) {
		case "k0049": // the last key below the cut at k0050
			select {
			case <-highPanicked:
			case <-time.After(10 * time.Second):
			}
			panic("low")
		case "k0050":
			defer close(highPanicked)
			panic("high")
		}
	}}
	_, died := splitReduce(spec, 0, outs, 2).run(1)
	select {
	case <-highPanicked:
	default:
		t.Fatal("range 1 never panicked")
	}
	if died == nil || died.Cause != "low" {
		t.Fatalf("the reduce died of %v, want range 0's panic", died)
	}
}

// A reduce cut into ranges allocates what the one-range reduce allocates
// plus a small constant, at any lane count: one window per range of the one
// output buffer, not a buffer per range, so its heap bytes do not grow with
// the lane count the way one scratch set per lane does. The split runs as a
// task body runs it, on a Runtime's lanes with the pool forced.
func TestReduceRangesAllocateAlike(t *testing.T) {
	spec := teraBenchSpec()
	rng := rand.New(rand.NewSource(7))
	var outs []*MapOutput
	for range 4 {
		outs = append(outs, ExecMapFile(spec, "", teraRows(rng, splitPairs/4)))
	}
	// heap reports the fewest bytes f allocated over five calls, so that a
	// goroutine's first descriptor or a runtime-internal allocation does
	// not count.
	heap := func(f func()) uint64 {
		least := ^uint64(0)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	want := ExecReduce(spec, 0, outs)
	one := heap(func() { ExecReduce(spec, 0, outs) })
	const slack = 8 << 10
	for _, lanes := range []int{2, 3, 4, 8} {
		restore := UseHostLanes(lanes)
		h := newHostLanes(defaultLanes())
		split := heap(func() {
			got, died := h.reduce(spec, 0, outs)
			if died != nil || !bytes.Equal(got.Encoded, want.Encoded) {
				t.Fatalf("%d lanes: the split reduce differs from the one-range reduce (died: %v)", lanes, died)
			}
		})
		h.close()
		restore()
		if split > one+slack {
			t.Errorf("%d lanes: the split reduce allocated %d bytes, the one-range reduce %d; want at most %d more",
				lanes, split, one, slack)
		}
	}
}
