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
		Reduce: func(k []byte, vs [][]byte, emit Emit) {
			for _, v := range vs {
				emit(k, v)
			}
		},
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

func benchExecReduce(b *testing.B, spec *JobSpec, data []byte) {
	outputs := make([]*MapOutput, 8)
	for i := range outputs {
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
	benchExecReduce(b, wcSpec([]string{"/x"}, "/o"), benchInput)
}

// BenchmarkExecReduceUnique measures the same stream over unique keys:
// every pair is its own group and its own 102-byte output line.
func BenchmarkExecReduceUnique(b *testing.B) {
	benchExecReduce(b, teraBenchSpec(), benchRows)
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
