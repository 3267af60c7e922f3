package workloads

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"mrapid/internal/mapreduce"
)

// raceDetector is set under the race detector, which drops sync.Pool Puts
// at random, so a warm table is not guaranteed there.
var raceDetector bool

// splitCounts runs data's lines through one split's record function and
// flush — WordCount's, or Grep's search for pattern when it is not empty;
// when maxWords is not 0, on a table that starts at two slots and holds at
// most that many words — and returns each word's count. It fails the test unless every word is a
// sub-slice of data, the flush emits each word once, with the value "1"
// and a count of at least 1, and the record function emits only words the
// flush does not count (the table was full).
func splitCounts(t *testing.T, data []byte, pattern string, maxWords int) map[string]int {
	t.Helper()
	var mapFn mapreduce.MapFunc
	var flush func(mapreduce.CountedEmit)
	switch {
	case maxWords > 0:
		// Two slots to start with: the words collide and the table grows.
		wt := borrowWordTable([]byte(pattern)) // "" is in every word
		wt.slots, wt.shift, wt.maxWords = make([]wordSlot, 2), 31, min(maxWords, wt.maxWords)
		mapFn, flush = wt.mapFn, wt.flushFn
	case pattern != "":
		mapFn, flush = GrepSearchSpec("grep", nil, "/out", pattern).MapFor("")
	default:
		mapFn, flush = wordCountSplit("")
	}
	inPlace := func(w []byte) {
		off := uintptr(unsafe.Pointer(unsafe.SliceData(w))) - uintptr(unsafe.Pointer(unsafe.SliceData(data)))
		if len(w) == 0 || off > uintptr(len(data)-len(w)) {
			t.Fatalf("word %q is not a sub-slice of the split", w)
		}
	}
	counts := map[string]int{}
	uncounted := map[string]bool{}
	mapreduce.LineFormat{}.Scan(data, func(k, v []byte) {
		mapFn(k, v, func(w, v []byte) {
			inPlace(w)
			if string(v) != "1" {
				t.Fatalf("word %q emitted with value %q", w, v)
			}
			counts[string(w)]++
			uncounted[string(w)] = true
		})
	})
	flushed := map[string]bool{}
	flush(func(w, v []byte, n int) {
		inPlace(w)
		if string(v) != "1" || n < 1 || flushed[string(w)] || uncounted[string(w)] {
			t.Fatalf("flush emitted (%q, %q) × %d (flushed before: %v, emitted uncounted: %v)", w, v, n, flushed[string(w)], uncounted[string(w)])
		}
		flushed[string(w)] = true
		counts[string(w)] += n
	})
	return counts
}

// referenceCounts counts the words of data the textbook way: a word is a
// maximal run of bytes other than ' ', '\t' and the '\n' ending a line.
func referenceCounts(data []byte, pattern string) map[string]int {
	counts := map[string]int{}
	for _, line := range strings.Split(string(data), "\n") {
		for _, w := range strings.FieldsFunc(line, func(r rune) bool { return r == ' ' || r == '\t' }) {
			if strings.Contains(w, pattern) {
				counts[w]++
			}
		}
	}
	return counts
}

// FuzzWordCountSplit checks the word table's one-pass scan, its count and
// its flush against referenceCounts on arbitrary bytes, for WordCount and
// for Grep's search, whose table admits only words holding the pattern,
// on a table as large as in production and on a tiny one that holds as
// few as one word, so that collisions, growth and the overflow past the
// cap are explored on small inputs too (TestWordCountSplitOverflowsPastTheCap
// crosses the production cap).
// The seeds cover runs of separators and empty lines, a last line without
// '\n', words of exactly eight bytes, longer words sharing their first
// eight, bytes FieldsFunc would read as invalid UTF-8, and splits with
// more distinct words than the small table holds.
func FuzzWordCountSplit(f *testing.F) {
	for _, seed := range []string{
		"", " ", "\t\t  \t", "\n\n\n", "a", "a b a\nc b a\n", "  lead and trail  \n\t\tx\t\n",
		"no final newline", "exactly8 exactly8\texactly8\nexactly9 exactly8x",
		"prefix12-a prefix12-b prefix12-a prefix12 prefix12-abcdefghij prefix12-abcdefghi",
		"abcdefghabcdefgh abcdefghabcdefghX abcdefghabcdefgh\n",
		"\x00 \x00\x00 a\x00 a \xff\xfe\xfd \xc3\x28 nul\x00in\x00word\x00\x00\x00\x00\x00\x00\x00\x00",
		"ab ab\x00 ab\x00\x00 ab\x00\x00\x00\x00\x00\x00 ab\x00\x00\x00\x00\x00\x00\x00 ab ab\x00\x00",
		"\r\n \v \f   split\rwords\n",
		"w0 w1 w2 w3 w0 w4 w5\tw1 w6 w7\nw8 w9 w10 w11 w0 w12 w13 w14 w15 w16 w1 w17",
	} {
		for _, pattern := range []string{"", "e", "fix12-a", "w1"} {
			f.Add([]byte(seed), pattern, uint8(0))
			f.Add([]byte(seed), pattern, uint8(3))
			f.Add([]byte(seed), pattern, uint8(16))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, pattern string, maxWords uint8) {
		if strings.ContainsAny(pattern, " \t\n") {
			return // no word holds one
		}
		got, want := splitCounts(t, data, pattern, int(maxWords)), referenceCounts(data, pattern)
		if len(got) != len(want) {
			t.Fatalf("%d distinct words, want %d", len(got), len(want))
		}
		for w, n := range want {
			if got[w] != n {
				t.Fatalf("count[%q] = %d, want %d", w, got[w], n)
			}
		}
	})
}

// TestWordTableTellsApartWordsThatShareAPrefix enters words that share
// their radix prefix — shorter ones that differ only in NUL padding, longer
// ones that differ past eight bytes or only in length — all under one hash,
// so each lookup probes past every other, and checks every count.
func TestWordTableTellsApartWordsThatShareAPrefix(t *testing.T) {
	words := []string{
		"ab", "ab\x00", "ab\x00\x00\x00\x00\x00\x00", "abcdefgh", "abcdefgh\x00", "abcdefghX", "abcdefghY",
		"abcdefghXY", "abcdefghXZ", "abcdefghXYZabcdefgh", "abcdefghXYZabcdefgi",
	}
	wt := borrowWordTable(nil)
	want := map[string]int{}
	for i, w := range words {
		for range i + 1 {
			var p [8]byte
			copy(p[:], w)
			wt.count([]byte(w), binary.BigEndian.Uint64(p[:]), 7, func([]byte, []byte) { t.Fatal("the table overflowed") })
			want[w]++
		}
	}
	got := map[string]int{}
	wt.flush(func(w, _ []byte, n int) { got[string(w)] += n })
	if !maps.Equal(got, want) {
		t.Fatalf("counts %q, want %q", got, want)
	}
}

// overflowSplit holds 100 more distinct words than a word table counts,
// each twice.
func overflowSplit() []byte {
	var data bytes.Buffer
	for i := range wordMaxSlots/2 + 100 {
		fmt.Fprintf(&data, "w%d w%d\n", i, i)
	}
	return data.Bytes()
}

// TestWordCountSplitOverflowsPastTheCap: a split with more distinct words
// than the table holds counts wordMaxSlots/2 of them and emits the rest as
// they come.
func TestWordCountSplitOverflowsPastTheCap(t *testing.T) {
	mapFn, flush := wordCountSplit("")
	emitted, flushed := 0, 0
	mapreduce.LineFormat{}.Scan(overflowSplit(), func(k, v []byte) {
		mapFn(k, v, func([]byte, []byte) { emitted++ })
	})
	flush(func(_, _ []byte, n int) {
		if n != 2 {
			t.Fatalf("a counted word occurs %d times, want 2", n)
		}
		flushed++
	})
	if flushed != wordMaxSlots/2 || emitted != 2*100 {
		t.Fatalf("%d words flushed and %d occurrences emitted, want %d and %d", flushed, emitted, wordMaxSlots/2, 2*100)
	}
}

// TestWordCountOverflowEndToEnd runs the overflow of
// TestWordCountSplitOverflowsPastTheCap through the map output and the
// reduce: the one production path where uncounted repeats reach the map
// output, which indexes each as a pair of its own and leaves them to the
// merge. Every word must count 2, and the output must charge what a plain
// Map that emits every occurrence charges.
func TestWordCountOverflowEndToEnd(t *testing.T) {
	data, words := overflowSplit(), wordMaxSlots/2+100
	for _, reduces := range []int{1, 4} {
		spec := WordCountSpec("wc", nil, "/out", false)
		plain := WordCountSpec("wc", nil, "/out", false)
		plain.MapFor = nil
		plain.Map = func(_, line []byte, emit mapreduce.Emit) {
			for _, w := range bytes.FieldsFunc(line, func(r rune) bool { return r == ' ' || r == '\t' }) {
				emit(w, one)
			}
		}
		spec.NumReduces, plain.NumReduces = reduces, reduces
		mo, ref := mapreduce.ExecMapFile(spec, "", data), mapreduce.ExecMapFile(plain, "", data)
		if mo.TotalBytes != ref.TotalBytes || mo.Records != ref.Records || !slices.Equal(mo.PartBytes, ref.PartBytes) {
			t.Fatalf("reduces=%d: the output charges %d bytes %v over %d records, the plain Map's %d bytes %v over %d",
				reduces, mo.TotalBytes, mo.PartBytes, mo.Records, ref.TotalBytes, ref.PartBytes, ref.Records)
		}
		pairs := 0
		for _, part := range mo.Partitions {
			pairs += len(part)
		}
		if want := wordMaxSlots/2 + 2*100; pairs != want {
			t.Fatalf("reduces=%d: the output indexes %d pairs, want %d counted and %d uncounted", reduces, pairs, wordMaxSlots/2, 2*100)
		}
		counts := map[string]int{}
		for p := range reduces {
			got, err := ParseWordCountOutput(mapreduce.EncodePairs(mapreduce.ExecReduce(spec, p, []*mapreduce.MapOutput{mo})))
			if err != nil {
				t.Fatal(err)
			}
			maps.Copy(counts, got)
		}
		if len(counts) != words {
			t.Fatalf("reduces=%d: %d words counted, want %d", reduces, len(counts), words)
		}
		for w, n := range counts {
			if n != 2 {
				t.Fatalf("reduces=%d: %q counts %d, want 2", reduces, w, n)
			}
		}
	}
}

// TestWordCountSplitAllocatesNothing: a split on a warm table — one a
// larger split grew — allocates nothing, in its record function or its
// flush.
func TestWordCountSplitAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops sync.Pool Puts at random")
	}
	lines := bytes.Split(NewCorpus(30000, 1).Generate(64<<10), []byte("\n"))
	overflow := func([]byte, []byte) { t.Fatal("the table overflowed") }
	discard := func([]byte, []byte, int) {}
	split := func(lines [][]byte) {
		mapFn, flush := wordCountSplit("")
		for _, line := range lines {
			mapFn(nil, line, overflow)
		}
		flush(discard)
	}
	split(lines)
	if n := testing.AllocsPerRun(100, func() { split(lines[:200]) }); n != 0 {
		t.Fatalf("a warm split allocates %v times", n)
	}
}

// BenchmarkWordCountMap times the production WordCount map — the word
// table's scan, its flush into the map output, and the sort — over one
// 1 MiB split of the corpus every WordCount experiment reads.
func BenchmarkWordCountMap(b *testing.B) {
	spec := WordCountSpec("bench", nil, "/out", false)
	split := NewCorpus(30000, 1).Generate(1 << 20)
	b.SetBytes(int64(len(split)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapreduce.ExecMapFile(spec, "", split)
	}
}
