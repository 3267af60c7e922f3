package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// A differential test of the reduce-side merge. Whatever runs it is given,
// draining a merger must yield what the textbook yields — concatenate every
// run, sort by bytes.Compare on key then value (refCompare, which shares
// nothing with compareRecs), group — through all three of its consumers:
// groups itself, ExecReduce and ConsolidateGroup. Each run is built as a
// map task builds it, through add, counted in each of three shares.

type kv struct{ k, v string }

// compareKV is refCompare on two pairs.
func compareKV(a, b kv) int { return refCompare([]byte(a.k), []byte(a.v), []byte(b.k), []byte(b.v)) }

// countedHalves are the shares of a run, in halves, that its build counts:
// none, so every occurrence is its own Rec, as a plain Map emits them; the
// first half, so counted pairs share a run with uncounted repeats of them;
// and all of it, each distinct pair once with its count, as a counted flush
// hands them over.
var countedHalves = []int{0, 1, 2}

// runOutput builds one sorted map output holding pairs: the occurrences
// among the first counted ones tallied per distinct pair, in first-seen
// order, and added once each with their count, the rest added one by one.
// Keys lie in the input block, one copy per occurrence the way text holds
// its words (a counted pair is keyed by its first), and values go to the
// slab, so a value repeating its predecessor shares its offset.
func runOutput(pairs []kv, counted int) *MapOutput {
	var block []byte
	for _, p := range pairs {
		block = append(block, p.k...)
	}
	b := newOutputBuilder(nil, "run", block, 1, maxOffset)
	type tally struct {
		key, value []byte
		n          uint32
	}
	seen := map[kv]int{}
	var tallies []tally
	off := 0
	for i, p := range pairs {
		k := block[off : off+len(p.k)]
		off += len(p.k)
		if i >= counted {
			b.add(0, k, []byte(p.v), 1)
			continue
		}
		t, ok := seen[p]
		if !ok {
			t = len(tallies)
			seen[p] = t
			tallies = append(tallies, tally{key: k, value: []byte(p.v)})
		}
		tallies[t].n++
	}
	for _, t := range tallies {
		b.add(0, t.key, t.value, t.n)
	}
	b.sortRecs(0)
	return b.output()
}

// occurrences expands partition p of an output back into its pairs, each
// counted pair as many times as its count says.
func occurrences(mo *MapOutput, p int) []kv {
	var pairs []kv
	for i, r := range mo.Partitions[p] {
		n := uint32(1)
		if c := mo.counts[p]; c != nil {
			n = c[i]
		}
		for ; n > 0; n-- {
			pairs = append(pairs, kv{string(mo.key(r)), string(mo.value(r))})
		}
	}
	return pairs
}

// identityReduce emits every occurrence under its key, so a reduce's bytes
// show the merged order of values as well as of keys.
func identityReduce(k []byte, vs Values, emit Emit) {
	vs.Each(func(v []byte) { emit(k, v) })
}

func checkMerge(t *testing.T, runs [][]kv) {
	t.Helper()
	for _, halves := range countedHalves {
		checkMergeCounted(t, runs, halves)
	}
}

func checkMergeCounted(t *testing.T, runs [][]kv, halves int) {
	t.Helper()
	var want []kv
	outs := make([]*MapOutput, len(runs))
	for i, run := range runs {
		want = append(want, run...)
		outs[i] = runOutput(run, len(run)*halves/2)
		if got := len(occurrences(outs[i], 0)); got != len(run) {
			t.Fatalf("%d/2 counted: run %d counts %d pairs, want %d", halves, i, got, len(run))
		}
	}
	slices.SortFunc(want, compareKV)
	var wantBytes []byte
	for _, p := range want {
		wantBytes = append(append(append(append(wantBytes, p.k...), '\t'), p.v...), '\n')
	}

	// groups hands over runs: expanded, they must be the sorted
	// concatenation, and each key's counts must add up to its occurrences.
	var got []kv
	var keys []string
	occurs := map[string]int{}
	for _, p := range want {
		occurs[p.k]++
	}
	newMerger(outs, 0).groups(func(k []byte, vs Values, _ Emit) {
		keys = append(keys, string(k))
		total := 0
		for i := range vs.Len() {
			v, n := vs.At(i)
			if n < 1 {
				t.Fatalf("%d/2 counted: key %q has a run of %q counted %d", halves, k, v, n)
			}
			for range n {
				got = append(got, kv{string(k), string(v)})
			}
			total += n
		}
		if total != occurs[string(k)] {
			t.Fatalf("%d/2 counted: key %q has runs counting %d values, want %d", halves, k, total, occurs[string(k)])
		}
	}, nil)
	if !slices.Equal(got, want) {
		t.Fatalf("%d/2 counted: groups yielded %q, want %q", halves, got, want)
	}
	if !slices.IsSorted(keys) || len(slices.Compact(slices.Clone(keys))) != len(keys) {
		t.Fatalf("%d/2 counted: groups did not yield each key once, in order: %q", halves, keys)
	}

	spec := &JobSpec{NumReduces: 1, Reduce: identityReduce}
	if red := ExecReduce(spec, 0, outs); !bytes.Equal(red.Encoded, wantBytes) || red.Records != int64(len(want)) {
		t.Fatalf("%d/2 counted: ExecReduce wrote %d records %q, want %d %q", halves, red.Records, red.Encoded, len(want), wantBytes)
	}
	if len(outs) == 0 {
		return
	}
	con := ConsolidateGroup(spec, outs).Out
	if got := occurrences(con, 0); !slices.Equal(got, want) {
		t.Fatalf("%d/2 counted: ConsolidateGroup holds %q, want %q", halves, got, want)
	}
	var charged int64
	for _, mo := range outs {
		charged += mo.TotalBytes
	}
	if con.TotalBytes != charged {
		t.Fatalf("%d/2 counted: ConsolidateGroup charges %d bytes, its members %d", halves, con.TotalBytes, charged)
	}
}

// mergeShapes are the inputs that take a merge down its different paths.
// Each builds the given number of runs.
var mergeShapes = []struct {
	name string
	runs func(rng *rand.Rand, n int) [][]kv
}{
	{"all pairs identical", func(rng *rand.Rand, n int) [][]kv {
		return fillRuns(n, func(int) int { return 1 + rng.Intn(40) }, func(int) kv { return kv{"word", "1"} })
	}},
	{"unique keys", func(rng *rand.Rand, n int) [][]kv {
		next := 0
		return fillRuns(n, func(int) int { return rng.Intn(30) }, func(int) kv {
			next++
			return kv{fmt.Sprintf("k%05d", (next*7919)%100_000), "v"}
		})
	}},
	{"zipf duplicates", func(rng *rand.Rand, n int) [][]kv {
		zipf := rand.NewZipf(rng, 1.2, 1, 49)
		return fillRuns(n, func(int) int { return 200 }, func(int) kv { return kv{fmt.Sprintf("w%d", zipf.Uint64()), "1"} })
	}},
	{"long keys sharing the prefix", func(rng *rand.Rand, n int) [][]kv {
		tails := []string{"", "a", "b", "ab", "\x00", "a\x00", "tail-of-some-length"}
		return fillRuns(n, func(int) int { return 60 }, func(int) kv { return kv{"sharedpf" + tails[rng.Intn(len(tails))], "1"} })
	}},
	{"one key, values differing between runs", func(rng *rand.Rand, n int) [][]kv {
		return fillRuns(n, func(int) int { return 1 + rng.Intn(9) }, func(run int) kv {
			return kv{"key", fmt.Sprint((run + rng.Intn(2)) % 4)}
		})
	}},
	{"empty keys and values", func(rng *rand.Rand, n int) [][]kv {
		return fillRuns(n, func(int) int { return rng.Intn(12) }, func(int) kv {
			return kv{[]string{"", "a"}[rng.Intn(2)], []string{"", "x"}[rng.Intn(2)]}
		})
	}},
	{"a run empty for the partition", func(rng *rand.Rand, n int) [][]kv {
		zipf := rand.NewZipf(rng, 1.2, 1, 19)
		return fillRuns(n, func(run int) int {
			if run == n/2 {
				return 0
			}
			return 50
		}, func(int) kv { return kv{fmt.Sprintf("w%d", zipf.Uint64()), "1"} })
	}},
	{"repeats around more unique keys, counted and not", func(_ *rand.Rand, n int) [][]kv {
		// Counting the first half counts the first repeats and leaves the
		// later ones uncounted next to them.
		pos := 0
		return fillRuns(n, func(int) int { pos = 0; return 2048 }, func(int) kv {
			pos++
			if pos <= 100 || pos > 1024+200 {
				return kv{fmt.Sprintf("r%d", pos%5), "1"}
			}
			return kv{fmt.Sprintf("u%05d", pos), "1"}
		})
	}},
}

func fillRuns(n int, size func(run int) int, pair func(run int) kv) [][]kv {
	runs := make([][]kv, n)
	for i := range runs {
		runs[i] = make([]kv, size(i))
		for j := range runs[i] {
			runs[i][j] = pair(i)
		}
	}
	return runs
}

// eachMergeCase visits run counts × shapes.
func eachMergeCase(visit func(name string, runs [][]kv)) {
	for _, n := range []int{0, 1, 2, 3, 8, 33} {
		for _, shape := range mergeShapes {
			rng := rand.New(rand.NewSource(int64(n)))
			visit(fmt.Sprintf("%d runs/%s", n, shape.name), shape.runs(rng, n))
		}
	}
}

func TestMergeMatchesSortedConcatenation(t *testing.T) {
	eachMergeCase(func(name string, runs [][]kv) {
		t.Run(name, func(t *testing.T) { checkMerge(t, runs) })
	})
}

// A reduce allocates per call, never per key: the merge hands each key its
// runs in scratch sized once, and the counted WordCount reducer sums them
// without expanding. Zipf text over four runs, its words counted in the
// mapper, gives ≈ 1.9 k keys; the few
// allocations left are the part file, the merge heap, the scratch and the
// text of the handful of totals past wcCountTexts.
func TestExecReduceAllocatesNothingPerKey(t *testing.T) {
	spec := wcSpec([]string{"/x"}, "/o")
	var outs []*MapOutput
	for _, split := range zipfSplits(4, 20<<10) {
		outs = append(outs, ExecMapFile(spec, "", split))
	}
	keys := ExecReduce(spec, 0, outs).Records
	if keys < 1000 {
		t.Fatalf("the input has %d keys; the check needs many", keys)
	}
	if allocs := testing.AllocsPerRun(20, func() { ExecReduce(spec, 0, outs) }); allocs > 16 {
		t.Fatalf("ExecReduce over %d keys made %v allocations, want at most 16", keys, allocs)
	}
}

// FuzzMergeGroups feeds checkMergeCounted arbitrary runs in an arbitrary
// order. The input is lines of "<run byte><key>\t<value>"; a line's first
// byte modulo nruns picks its run, and a line without a tab is a key with
// an empty value. The runs are then shuffled by order: a merge's result
// must not depend on the order its runs are fed, which is what lets the
// MapCache key a reduce by the multiset of its inputs (see reduceKey).
// order also picks the counted share of the runs' builds.
//
// An execution stays small so that the fuzzer spends its time fuzzing: the
// input is at most 8 KiB, and the seeds are the merge cases with each run
// cut to its first maxSeedPairs/len(runs) pairs. The cases at full size —
// the repeats shape's 2 048-pair runs, about 20 KiB of text each, and 33
// runs of Zipf duplicates — are checked, at every counted share, in
// TestMergeMatchesSortedConcatenation: one execution over 33 such runs took
// a third of a second, and the fuzzer minimizes every new interesting
// input at the speed of such executions.
func FuzzMergeGroups(f *testing.F) {
	const maxSeedPairs = 500
	eachMergeCase(func(_ string, runs [][]kv) {
		for i, run := range runs {
			runs[i] = run[:min(len(run), maxSeedPairs/len(runs))]
		}
		var text strings.Builder
		for i, run := range runs {
			for _, p := range run {
				fmt.Fprintf(&text, "%c%s\t%s\n", i, p.k, p.v)
			}
		}
		f.Add([]byte(text.String()), uint8(len(runs)), int64(len(runs)))
	})
	f.Fuzz(func(t *testing.T, text []byte, nruns uint8, order int64) {
		if nruns == 0 || nruns > 40 || len(text) > 8<<10 {
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
		// Shuffle by order with a splitmix64 stream: a rand.Source costs
		// more to seed than a small merge takes.
		x := uint64(order)
		for i := len(runs) - 1; i > 0; i-- {
			x += 0x9e3779b97f4a7c15
			z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			j := int((z ^ z>>31) % uint64(i+1))
			runs[i], runs[j] = runs[j], runs[i]
		}
		checkMergeCounted(t, runs, countedHalves[uint64(order)%uint64(len(countedHalves))])
	})
}
