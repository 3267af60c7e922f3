package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The shuffle service's consolidation on host lanes (Runtime.ConsolidateGroup)
// against the one-goroutine reference, ConsolidateGroup: one piece per
// partition, a partition cut into key ranges when the job has fewer
// partitions than lanes, pool workers taking pieces. Offsets are not
// compared: the pieces' slabs are laid end to end, so the slab's layout may
// differ from the reference's single builder's.

// sameConsolidation reports how got differs from want, pair by pair: each
// partition's keys, values and counts, and the byte and record totals. Byte-
// identical neighbours are folded into one run first, since which run's copy
// of a repeated pair the merge pops first is not defined.
func sameConsolidation(got, want *MapOutput) error {
	if len(got.Partitions) != len(want.Partitions) {
		return fmt.Errorf("%d partitions, want %d", len(got.Partitions), len(want.Partitions))
	}
	if !slices.Equal(got.PartBytes, want.PartBytes) || got.TotalBytes != want.TotalBytes ||
		got.Records != want.Records || got.InMemory != want.InMemory {
		return fmt.Errorf("PartBytes %v total %d records %d in memory %t, want %v %d %d %t",
			got.PartBytes, got.TotalBytes, got.Records, got.InMemory,
			want.PartBytes, want.TotalBytes, want.Records, want.InMemory)
	}
	for p := range want.Partitions {
		if len(got.Partitions[p]) != len(want.Partitions[p]) {
			return fmt.Errorf("partition %d indexes %d pairs, want %d", p, len(got.Partitions[p]), len(want.Partitions[p]))
		}
		g, w := countedPairs(got, p), countedPairs(want, p)
		if len(g) != len(w) {
			return fmt.Errorf("partition %d: %d runs of identical pairs, want %d", p, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				return fmt.Errorf("partition %d, run %d: %q %q ×%d, want %q %q ×%d", p, i, g[i].k, g[i].v, g[i].n, w[i].k, w[i].v, w[i].n)
			}
		}
	}
	return nil
}

type countedKV struct {
	kv
	n int
}

// countedPairs lists partition p of mo as runs of byte-identical pairs.
func countedPairs(mo *MapOutput, p int) []countedKV {
	var runs []countedKV
	for i, r := range mo.Partitions[p] {
		n := 1
		if c := mo.counts[p]; c != nil {
			n = int(c[i])
		}
		pair := kv{string(mo.key(r)), string(mo.value(r))}
		if l := len(runs) - 1; l >= 0 && runs[l].kv == pair {
			runs[l].n += n
			continue
		}
		runs = append(runs, countedKV{pair, n})
	}
	return runs
}

// memberOutputs builds members map outputs of nparts hash partitions, each
// of draws pairs (w<n>, "1") drawn from 1.5 × draws words, so a word
// repeats within a member and across members: every draw added on its own,
// or each distinct pair once with its count.
func memberOutputs(rng *rand.Rand, members, draws, nparts int, counted bool) []*MapOutput {
	outs := make([]*MapOutput, members)
	for m := range outs {
		b := newOutputBuilder(nil, "member", nil, nparts, maxOffset)
		tally := map[string]uint32{}
		var order []string
		for range draws {
			w := fmt.Sprintf("w%d", rng.Intn(3*draws/2))
			if !counted {
				b.add(HashPartition([]byte(w), nparts), []byte(w), []byte("1"), 1)
				continue
			}
			if tally[w] == 0 {
				order = append(order, w)
			}
			tally[w]++
		}
		for _, w := range order {
			b.add(HashPartition([]byte(w), nparts), []byte(w), []byte("1"), tally[w])
		}
		for p := range nparts {
			b.sortRecs(p)
		}
		outs[m] = b.output()
		outs[m].Records = int64(draws)
		outs[m].InMemory = m%2 == 0
	}
	return outs
}

// reversedKeys is a combiner that counts a key's occurrences under the key
// spelled backwards, so its output leaves the merged order and a
// partition cut into ranges must be sorted again once sealed.
func reversedKeys(k []byte, vs Values, emit Emit) {
	r := slices.Clone(k)
	slices.Reverse(r)
	countReduce(r, vs, emit)
}

// consolidationCombiners are the combiners every equivalence check runs:
// none, so merged pairs keep their counts; one that keeps its keys; and
// reversedKeys.
var consolidationCombiners = []struct {
	name    string
	combine ReduceFunc
}{{"no combiner", nil}, {"counting combiner", countReduce}, {"key-reversing combiner", reversedKeys}}

func TestConsolidationOnLanesMatchesReference(t *testing.T) {
	for _, lanes := range []int{2, 3} {
		for _, nred := range []int{1, 4} {
			for _, members := range []int{2, 8} {
				for _, counted := range []bool{false, true} {
					// Enough draws that a single partition indexes splitPairs
					// pairs, so a 1-reduce job is cut into ranges.
					group := memberOutputs(rand.New(rand.NewSource(int64(members))), members, 3*splitPairs/members, nred, counted)
					for _, c := range consolidationCombiners {
						name := fmt.Sprintf("%d lanes/%d reduces/%d members/counted %t/%s", lanes, nred, members, counted, c.name)
						t.Run(name, func(t *testing.T) {
							spec := &JobSpec{NumReduces: nred, Combine: c.combine}
							want := ConsolidateGroup(spec, group).Out
							restore := UseHostLanes(lanes)
							rt := &Runtime{lanes: newHostLanes(defaultLanes())}
							defer func() { rt.Close(); restore() }()
							if cut := rt.lanes.ranges(nred, group, 0); (nred < lanes) != (cut > 1) {
								t.Fatalf("partition 0 is cut into %d ranges", cut)
							}
							for range 2 { // cold builders, then warm ones
								if err := sameConsolidation(rt.ConsolidateGroup(spec, group).Out, want); err != nil {
									t.Fatal(err)
								}
							}
						})
					}
				}
			}
		}
	}
}

// When two pieces panic the lowest one's panic fails the consolidation,
// whichever panicked first: the combiner of piece 0's last key waits until
// piece 1's first key has panicked on the other goroutine, then panics
// itself. The panic reaches the caller as the *AttemptError that contained
// it, cause and frame.
func TestLowestConsolidationPiecePanicWins(t *testing.T) {
	run := make([]kv, 100)
	for i := range run {
		run[i] = kv{fmt.Sprintf("k%04d", i), "v"}
	}
	group := []*MapOutput{runOutput(run, 0), runOutput(run[40:60], 0)}
	highPanicked := make(chan struct{})
	spec := &JobSpec{NumReduces: 1, Combine: func(k []byte, _ Values, _ Emit) {
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
	c := newConsolidation(new(hostLanes), spec, group, func(int) int { return 2 })
	died := c.run(c, len(c.pieces), 1)
	c.putLanes()
	select {
	case <-highPanicked:
	default:
		t.Fatal("piece 1 never panicked")
	}
	if died == nil || died.Cause != "low" {
		t.Fatalf("the consolidation died of %v, want piece 0's panic", died)
	}
	_, raised := contain(func() bool { panic(died) })
	if raised != died {
		t.Fatalf("contain reported a re-raised death as %v, want it as it was", raised)
	}
}

// splitConsolidation is the consolidation of partition 0 of outs cut into
// n key ranges, run with up to helpers pool workers.
func splitConsolidation(spec *JobSpec, outs []*MapOutput, n, helpers int) (*MapOutput, *AttemptError) {
	c := newConsolidation(new(hostLanes), spec, outs, func(int) int { return n })
	if died := c.run(c, len(c.pieces), helpers); died != nil {
		c.putLanes()
		return nil, died
	}
	return c.seal(outs).Out, nil
}

// checkConsolidationRanges is checkRanges' consolidation half: outs
// consolidated with partition 0 cut into one to four ranges, in order or
// with helpers, against the uncut consolidation, under every combiner.
func checkConsolidationRanges(t *testing.T, outs []*MapOutput, halves int) {
	t.Helper()
	for _, c := range consolidationCombiners {
		spec := &JobSpec{NumReduces: 1, Combine: c.combine}
		want, _ := splitConsolidation(spec, outs, 1, 0)
		for n := 2; n <= 4; n++ {
			for _, helpers := range []int{0, n - 1} {
				got, died := splitConsolidation(spec, outs, n, helpers)
				if died != nil {
					t.Fatalf("%s, %d/2 counted, %d ranges (%d helpers): died of %v", c.name, halves, n, helpers, died)
				}
				if err := sameConsolidation(got, want); err != nil {
					t.Fatalf("%s, %d/2 counted, %d ranges (%d helpers): %v", c.name, halves, n, helpers, err)
				}
			}
		}
	}
}

// One consolidation's pieces, cut or not, seal into the layout
// outputBuilder.output seals one builder into: every partition and its
// counts capacity-clipped windows of one array, the slab at its exact
// length, and every key and value readable where its Rec says.
func TestConsolidationSealsExactly(t *testing.T) {
	group := memberOutputs(rand.New(rand.NewSource(3)), 3, 400, 1, true)
	for n := 1; n <= 3; n++ {
		got, died := splitConsolidation(&JobSpec{NumReduces: 1}, group, n, 0)
		if died != nil {
			t.Fatal(died)
		}
		if _, err := SealedFootprint(got); err != nil {
			t.Fatalf("%d ranges: %v", n, err)
		}
		for _, r := range got.Partitions[0] {
			if k := got.key(r); !bytes.HasPrefix(k, []byte("w")) {
				t.Fatalf("%d ranges: a Rec reads key %q", n, k)
			}
		}
	}
}
