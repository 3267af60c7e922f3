package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
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
// partition, sort), the dominant host cost of every experiment, on
// duplicate-heavy keys.
func BenchmarkExecMap(b *testing.B) {
	benchExecMap(b, wcSpec([]string{"/x"}, "/o"), benchInput)
}

// BenchmarkExecMapWithCombiner measures the same path with map-side
// combining enabled.
func BenchmarkExecMapWithCombiner(b *testing.B) {
	spec := wcSpec([]string{"/x"}, "/o")
	spec.Combine = spec.Reduce
	benchExecMap(b, spec, benchInput)
}

// BenchmarkExecMapUnique measures the map path on unique keys, every pair
// indexed in place.
func BenchmarkExecMapUnique(b *testing.B) {
	benchExecMap(b, teraBenchSpec(), benchRows)
}

// BenchmarkExecMapZipf measures it on one 1 MiB split of Zipf text, the
// shape of wc_modes' splits: 130 447 words fold into 10 145 distinct pairs,
// where BenchmarkExecMap's ten words fold trivially.
func BenchmarkExecMapZipf(b *testing.B) {
	benchExecMap(b, wcSpec([]string{"/x"}, "/o"), zipfSplits(1, 1<<20)[0])
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
// reduce, encode — over 8 pre-sorted duplicate-heavy map outputs.
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

// BenchmarkConsolidateGroup measures the shuffle service's per-node merge:
// 8 combined outputs of 4 partitions over a 5000-word vocabulary,
// re-combined into one.
func BenchmarkConsolidateGroup(b *testing.B) {
	spec := wcSpec([]string{"/x"}, "/o")
	spec.Combine = spec.Reduce
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

// BenchmarkMapCacheFingerprint measures the cache key fingerprint on a
// 10 MB split.
func BenchmarkMapCacheFingerprint(b *testing.B) {
	data := bytes.Repeat(benchInput, 10)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprint(data)
	}
}
