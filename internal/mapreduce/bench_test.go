package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// benchInput builds ~1 MB of duplicate-heavy text once for the map
// benchmarks: ten distinct words, 180 000 occurrences.
var benchInput = bytes.Repeat([]byte("alpha beta gamma delta epsilon zeta eta theta iota kappa\n"), 18_000)

// benchRows builds ~1 MB of TeraSort-shaped rows: unique random 10-byte
// keys, 90-byte payloads.
var benchRows = func() []byte {
	rows := make([]byte, 10_000*100)
	rand.New(rand.NewSource(7)).Read(rows)
	return rows
}()

// teraRows builds n rows the way workloads.TeraRows does (this package's
// tests cannot import workloads): a 10-byte key of printable ASCII, then the
// row's ordinal zero-padded to 22 digits and dots to 100 bytes.
func teraRows(rng *rand.Rand, n int) []byte {
	rows, dots := make([]byte, 0, n*100), strings.Repeat(".", 68)
	for i := range n {
		for range 10 {
			rows = append(rows, byte(' '+rng.Intn(95)))
		}
		rows = fmt.Appendf(rows, "%022d%s", i, dots)
	}
	return rows
}

// teraBenchSpec is the identity job over fixed 100-byte rows.
func teraBenchSpec() *JobSpec {
	return &JobSpec{
		Name: "tera-bench", InputFiles: []string{"/x"}, OutputFile: "/o", NumReduces: 1,
		Format: FixedFormat{KeyLen: 10, ValLen: 90},
		Map:    func(k, v []byte, emit Emit) { emit(k, v) },
		Reduce: identityReduce,
	}
}

func benchExecMap(b *testing.B, spec *JobSpec, data []byte) {
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mo := ExecMap(spec, data); mo.Records == 0 {
			b.Fatal("no records")
		}
	}
}

// BenchmarkExecMap measures the real map execution hot path (scan, map,
// partition, sort) through a plain Map on duplicate-heavy keys: every
// occurrence is indexed and sorted as a pair of its own.
func BenchmarkExecMap(b *testing.B) {
	benchExecMap(b, PlainWordCountSpec(false), benchInput)
}

// BenchmarkExecMapWithCombiner measures the same plain path with map-side
// combining enabled.
func BenchmarkExecMapWithCombiner(b *testing.B) {
	benchExecMap(b, PlainWordCountSpec(true), benchInput)
}

// BenchmarkExecMapUnique measures the map path on unique keys, every pair
// indexed in place.
func BenchmarkExecMapUnique(b *testing.B) {
	benchExecMap(b, teraBenchSpec(), benchRows)
}

// BenchmarkExecMapZipf measures it on one 1 MiB split of Zipf text, the
// shape of wc_modes' splits, through a plain Map: each of its 130 447 words
// is indexed and sorted as a pair of its own. No production job maps this
// way any more — WordCount counts its words in the mapper, and workloads'
// BenchmarkWordCountMap times that path — so this is the cost a user's
// plain WordCount pays.
func BenchmarkExecMapZipf(b *testing.B) {
	benchExecMap(b, PlainWordCountSpec(false), zipfSplits(1, 1<<20)[0])
}

// zipfSplits builds the inputs of one of the paper's short WordCount jobs:
// count splits of size bytes each, 70-column lines of 3- to 10-letter words
// drawn under Zipf(1.2) from one 30 000-word vocabulary — the shape
// workloads.Corpus generates (this package's tests cannot import workloads).
func zipfSplits(count, size int) [][]byte {
	rng := rand.New(rand.NewSource(7))
	vocab := make([][]byte, 30_000)
	for i := range vocab {
		w := make([]byte, 3+rng.Intn(8))
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		vocab[i] = w
	}
	zipf := rand.NewZipf(rng, 1.2, 1.0, uint64(len(vocab)-1))
	splits := make([][]byte, count)
	for i := range splits {
		text := make([]byte, 0, size+16)
		for line := 0; len(text) < size; {
			w := vocab[zipf.Uint64()]
			text = append(text, w...)
			if line += len(w) + 1; line >= 70 {
				text, line = append(text, '\n'), 0
			} else {
				text = append(text, ' ')
			}
		}
		splits[i] = append(text, '\n')
	}
	return splits
}

// eightOf is the input of the long reduce benchmarks: the same split mapped
// eight times.
func eightOf(data []byte) [][]byte {
	splits := make([][]byte, 8)
	for i := range splits {
		splits[i] = data
	}
	return splits
}

func benchExecReduce(b *testing.B, spec *JobSpec, splits [][]byte) {
	outputs := make([]*MapOutput, len(splits))
	for i, data := range splits {
		outputs[i] = ExecMap(spec, data)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := ExecReduce(spec, 0, outputs); out.Records == 0 {
			b.Fatal("empty reduce")
		}
	}
}

// BenchmarkExecReduce measures the streaming reduce — k-way merge, group,
// reduce, encode — over 8 pre-sorted duplicate-heavy map outputs, their
// words counted in the mapper.
func BenchmarkExecReduce(b *testing.B) {
	benchExecReduce(b, wcSpec([]string{"/x"}, "/o"), eightOf(benchInput))
}

// BenchmarkExecReduceShort measures it at the size the paper's jobs have:
// 4 runs of 20 KiB of Zipf text each, ≈ 10 k pairs over ≈ 1.9 k keys.
func BenchmarkExecReduceShort(b *testing.B) {
	benchExecReduce(b, wcSpec([]string{"/x"}, "/o"), zipfSplits(4, 20<<10))
}

// BenchmarkExecReduceUnique measures the same stream over unique keys:
// every pair is its own group and its own 102-byte output line.
func BenchmarkExecReduceUnique(b *testing.B) {
	benchExecReduce(b, teraBenchSpec(), eightOf(benchRows))
}

// BenchmarkExecReduceTera measures it at the shape of one reduce of the
// 500k-row TeraSort point: four distinct runs of 125 000 rows, 12.5 MB
// each. Unlike BenchmarkExecReduceUnique's one cached split, the merge
// gathers every 100-byte row from a random offset in 50 MB of input.
func BenchmarkExecReduceTera(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	splits := make([][]byte, 4)
	for i := range splits {
		splits[i] = teraRows(rng, 125_000)
	}
	benchExecReduce(b, teraBenchSpec(), splits)
}

// BenchmarkSortRecs measures the map-side sort alone on one partition in
// four shapes, each restored to its unsorted order before every sort (the
// copy is part of the time):
//   - tera: 125 000 unique rows, one split of the 500k-row TeraSort point;
//   - zipf-counted: one 1 MiB WordCount split's counted partition, shuffled;
//   - sorted: the same partition in order, what combineFrom re-sorts;
//   - one-prefix: 20 000 pairs sharing all eight prefix bytes, which only
//     compareRecs can order; a quadratic sort would take seconds here.
func BenchmarkSortRecs(b *testing.B) {
	for _, c := range []struct {
		name  string
		build func() *outputBuilder
	}{
		{"tera", func() *outputBuilder { return rowPartition(teraRows(rand.New(rand.NewSource(7)), 125_000)) }},
		{"zipf-counted", func() *outputBuilder { return shuffled(wordPartition(), 7) }},
		{"sorted", wordPartition},
		{"one-prefix", func() *outputBuilder { return onePrefixPartition(20_000) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			ob := c.build()
			idx, counts := ob.parts[0], ob.counts[0]
			saved, savedCounts := slices.Clone(idx), slices.Clone(counts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(idx, saved)
				copy(counts, savedCounts)
				ob.sortRecs(0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(idx)), "ns/pair")
		})
	}
}

// BenchmarkConsolidateGroup measures the shuffle service's per-node merge:
// 8 outputs of a plain Map combined on the map side, 4 partitions over a
// 5000-word vocabulary, re-combined into one.
func BenchmarkConsolidateGroup(b *testing.B) {
	spec := PlainWordCountSpec(true)
	spec.NumReduces = 4
	group := make([]*MapOutput, 8)
	for i := range group {
		var text bytes.Buffer
		for w := 0; w < 40_000; w++ {
			fmt.Fprintf(&text, "word-%d\n", (w*(i+3))%5000)
		}
		group[i] = ExecMap(spec, text.Bytes())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := ConsolidateGroup(spec, group); c.Out.TotalBytes == 0 {
			b.Fatal("empty consolidation")
		}
	}
}

// BenchmarkMapCacheKey measures one map lookup's key on a 10 MB split
// whose block digest is already computed, as every lookup after a block's
// first finds it: it hashes nothing and allocates nothing.
func BenchmarkMapCacheKey(b *testing.B) {
	spec := wcSpec([]string{"/in"}, "/out")
	data := bytes.Repeat(benchInput, 10)
	content := blockContent(b, data)
	content.Digest()
	c := NewMapCache(1 << 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.key(spec, "/in", 0, len(data), content); !ok {
			b.Fatal("WordCount is not reusable")
		}
	}
}
