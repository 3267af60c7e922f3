package workloads

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"
	"unicode/utf8"

	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
	"mrapid/internal/topology"
)

// WordCount compute rates, calibrated to a 2013-era JVM WordCount: the map
// side tokenizes ~1.8 MB/s per core on the A-series (cold JVM, blob-backed storage, per-record framework overhead);
// the reduce side merely sums pre-grouped counts and streams at ~60 MB/s.
const (
	WordCountMapRate    = 1.8e6
	WordCountReduceRate = 60e6
)

// WordCountConfig controls input synthesis for one WordCount run.
type WordCountConfig struct {
	Files     int   // number of input files
	FileBytes int64 // size of each file
	VocabSize int   // distinct words in the corpus (default 30000)
	Seed      int64
	Combiner  bool // enable the map-side combiner
}

// GenerateWordCountInput stages the input files into HDFS (costlessly, as
// experiment setup) and returns their names. Each file lands on a distinct
// starting DataNode when possible, round-robin, the way a prior TeraGen-like
// job would have spread them.
func GenerateWordCountInput(dfs *hdfs.DFS, cluster *topology.Cluster, prefix string, cfg WordCountConfig) ([]string, error) {
	if cfg.Files <= 0 || cfg.FileBytes <= 0 {
		return nil, fmt.Errorf("workloads: wordcount needs positive files and size, got %d × %d", cfg.Files, cfg.FileBytes)
	}
	vocab := cfg.VocabSize
	if vocab == 0 {
		vocab = defaultVocab
	}
	if vocab < 0 || vocab > maxVocab {
		return nil, fmt.Errorf("workloads: wordcount vocabulary of %d words, want 1 to %d (0 for %d)", vocab, maxVocab, defaultVocab)
	}
	// One long deterministic stream per (vocab, seed), cut into per-file
	// chunks at line boundaries. Cached across runs: every experiment that
	// asks for the same configuration gets the same files, Contents and all.
	workers := cluster.Workers()
	var names []string
	for i, c := range corpusFiles(vocab, cfg.Seed, cfg.Files, cfg.FileBytes) {
		name := InputFileName(prefix, i)
		if _, err := dfs.PutContentInstant(name, c, workers[i%len(workers)]); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}

// WordCountSpec builds the WordCount job over the given input files. Its
// map counts each split's words in the mapper (wordCountSplit), so the map
// output holds each distinct word of a split once, as the pair (word, "1")
// with its count.
func WordCountSpec(name string, inputs []string, output string, combiner bool) *mapreduce.JobSpec {
	spec := &mapreduce.JobSpec{
		Name:       name,
		JobKey:     "wordcount",
		InputFiles: inputs,
		OutputFile: output,
		NumReduces: 1,
		Format:     mapreduce.LineFormat{},
		MapFor:     wordCountSplit,
		Reduce:     wordCountReduce,
		MapRate:    WordCountMapRate,
		ReduceRate: WordCountReduceRate,
	}
	if combiner {
		spec.Combine = wordCountReduce
	}
	return spec
}

var one = []byte("1")

// wordCountSplit is WordCount's MapFor: it borrows a word table for one
// split and hands out the table's record function and flush.
func wordCountSplit(_ string, lane *mapreduce.Lane) (mapreduce.MapFunc, func(mapreduce.CountedEmit)) {
	t := borrowWordTable(lane, nil)
	return t.mapFn, t.flushFn
}

// wordTable is one split's in-mapper combiner for WordCount and Grep's
// search: every distinct word of the split's lines — a run of bytes between
// ' ' and '\t' — in first-seen order, with its count. The record function
// reads a line eight bytes at a time and builds each word's radix prefix
// (its first eight bytes, big-endian and zero-padded: what the map
// output's index keys on) and a multiply-xor hash of all of it from the
// same loads. A slot of the table holds a word's prefix, length and count
// in 16 bytes, so counting a repeat of a word of at most eight bytes reads
// one slot and never the word; a longer one compares its bytes past the
// prefix with the word's first occurrence. The words are sub-slices of the
// split's input block, which the map output indexes in place.
//
// The table is open addressing with linear probing, a hash's top bits
// picking its home slot, and each word keeps its hash and knows its slot,
// so growing never rehashes and the flush empties only the slots the split
// used. It grows fourfold at half load up to wordMaxSlots; once it holds
// wordMaxSlots/2 words, a new word goes out at once through the record
// function's Emit, uncounted, which the builder and the merge take as they
// take any repeated pair. A table comes from its lane's stack of
// wordTables with its record function and flush bound to it, and the
// flush resets it and puts it back there, so a split on a warm table
// allocates nothing; a split whose map panics never flushes and never
// returns its table.
type wordTable struct {
	slots    []wordSlot // a power of two long, at most half full
	shift    uint       // a hash's top bits pick its home slot
	words    []wordEntry
	maxWords int    // wordMaxSlots/2, lower under test
	pattern  []byte // Grep: admit only words containing it; nil admits all
	lane     *mapreduce.Lane

	mapFn   mapreduce.MapFunc
	flushFn func(mapreduce.CountedEmit)
}

// wordSlot is one word's slot: its prefix, its count, its index in words
// + 1 (0: the slot is empty) and its length, 0xffff for any longer.
type wordSlot struct {
	prefix    uint64
	n         uint32
	word, len uint16
}

type wordEntry struct {
	word       []byte
	hash, slot uint32
}

// A full table holds 32 768 words — the whole 30 000-word corpus
// vocabulary — each numbered in its slot's 16 bits.
const (
	wordMinSlots = 1 << 11
	wordMaxSlots = 1 << 16
)

// wordTables are the flushed and reset tables. It is a free list, not a
// sync.Pool: a collection does not empty it, so a process builds one table
// per lane, not one after every GC.
var wordTables mapreduce.FreeList[wordTable]

// borrowWordTable takes a reset table from lane's wordTables, or builds
// one, for a split whose words must contain pattern (nil: every word
// counts).
func borrowWordTable(lane *mapreduce.Lane, pattern []byte) *wordTable {
	t := wordTables.Get(lane)
	if t == nil {
		t = &wordTable{
			slots: make([]wordSlot, wordMinSlots),
			shift: uint(32 - bits.TrailingZeros(wordMinSlots)),
			words: make([]wordEntry, 0, wordMinSlots/2),
		}
		t.mapFn = t.scan
		t.flushFn = t.flush
	}
	t.maxWords, t.pattern, t.lane = wordMaxSlots/2, pattern, lane
	return t
}

const (
	bytes8 = 0x0101010101010101 // one in every byte
	high8  = 0x8080808080808080 // every byte's high bit
	low8   = 0x7f7f7f7f7f7f7f7f // every byte's other bits
)

// separators marks the bytes of x that are ' ' or '\t' with their high bit.
// A byte of y&low8 + low8 | y has its high bit set exactly when the byte of
// y is not zero (no carry crosses a byte), so the test is exact per byte.
func separators(x uint64) uint64 {
	s, t := x^' '*bytes8, x^'\t'*bytes8
	return ^((s&low8 + low8 | s) & (t&low8 + low8 | t)) & high8
}

// load8 returns line's eight bytes from i on, little-endian, as ' ' past
// the end of line.
func load8(line []byte, i int) uint64 {
	if len(line)-i >= 8 {
		return binary.LittleEndian.Uint64(line[i:])
	}
	x := uint64(' ' * bytes8)
	for j := len(line) - 1; j >= i; j-- {
		x = x<<8 | uint64(line[j])
	}
	return x
}

// scan is the record function: it counts every word of line.
func (t *wordTable) scan(_, line []byte, emit mapreduce.Emit) {
	const mul = 0x9e3779b97f4a7c15
	for i := 0; i < len(line); i++ { // i++ steps past the word's separator
		x := load8(line, i)
		m := separators(x)
		if skip := bits.TrailingZeros64(^m&high8) >> 3; skip > 0 {
			i += skip - 1 // a run of separators (8: the load held only those)
			continue
		}
		start := i
		// n: the word's bytes in this load, 8 when it runs past it. The
		// prefix is the first eight bytes big-endian, zero-padded; every
		// further eight are mixed into the hash the same way.
		n := bits.TrailingZeros64(m) >> 3
		prefix := bits.ReverseBytes64(x) &^ (1<<(64-8*uint(n)) - 1)
		h := prefix
		for i += n; n == 8; i += n {
			x = load8(line, i)
			if n = bits.TrailingZeros64(separators(x)) >> 3; n > 0 {
				h = h*mul ^ bits.ReverseBytes64(x)&^(1<<(64-8*uint(n))-1)
			}
		}
		word := line[start:i]
		if t.pattern != nil && !bytes.Contains(word, t.pattern) {
			continue
		}
		h = (h*mul ^ uint64(len(word))) * mul
		t.count(word, prefix, uint32(h>>32), emit)
	}
}

// count adds one occurrence of word, whose prefix and hash scan built.
func (t *wordTable) count(word []byte, prefix uint64, h uint32, emit mapreduce.Emit) {
	mask := uint32(len(t.slots) - 1)
	i := h >> t.shift
	l := uint16(min(len(word), 0xffff))
	for ; t.slots[i].word != 0; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.prefix == prefix && s.len == l &&
			(len(word) <= 8 || bytes.Equal(t.words[s.word-1].word[8:], word[8:])) {
			s.n++
			return
		}
	}
	if len(t.words) == t.maxWords {
		emit(word, one) // full
		return
	}
	t.words = append(t.words, wordEntry{word: word, hash: h, slot: i})
	t.slots[i] = wordSlot{prefix: prefix, n: 1, word: uint16(len(t.words)), len: l}
	if 2*len(t.words) == len(t.slots) && len(t.words) < t.maxWords {
		t.grow()
	}
}

// grow quadruples the slots, up to wordMaxSlots, re-entering every word by
// its stored hash, and makes the words' room len(slots)/2, the most the
// table holds, so count's append never reallocates them (append regrows a
// long slice by 1.25×). Every lane warms a table of its own, so what a cold
// table allocates on its way to full size — about 3.3 MiB — is paid once
// per lane.
func (t *wordTable) grow() {
	old := t.slots
	n := min(4*len(old), wordMaxSlots)
	t.slots, t.shift = make([]wordSlot, n), t.shift-uint(bits.TrailingZeros(uint(n/len(old))))
	t.words = append(make([]wordEntry, 0, len(t.slots)/2), t.words...)
	mask := uint32(len(t.slots) - 1)
	for w := range t.words {
		e := &t.words[w]
		s := old[e.slot]
		i := e.hash >> t.shift
		for t.slots[i].word != 0 {
			i = (i + 1) & mask
		}
		t.slots[i], e.slot = s, i
	}
}

// flush emits every counted word once, as (word, "1") × its count, in
// first-seen order, then resets the table and returns it to wordTables;
// the split's record function and flush must not be called after.
func (t *wordTable) flush(emit mapreduce.CountedEmit) {
	for _, e := range t.words {
		emit(e.word, one, int(t.slots[e.slot].n))
		t.slots[e.slot] = wordSlot{}
	}
	clear(t.words) // the words pin their input blocks
	t.words, t.pattern = t.words[:0], nil
	wordTables.Put(t.lane, t)
}

// countTexts holds the decimal text of every count below 1000, cut from one
// slab: what a short job's reduce emits for all but a few hundred head
// words. Shared and read-only — Emit's contract is that the callee copies.
var countTexts = func() (texts [1000][]byte) {
	slab := make([]byte, 0, 10+2*90+3*900)
	for n := range texts {
		start := len(slab)
		slab = strconv.AppendInt(slab, int64(n), 10)
		texts[n] = slab[start:len(slab):len(slab)]
	}
	return texts
}()

func wordCountReduce(key []byte, values mapreduce.Values, emit mapreduce.Emit) {
	total := 0
	for i := range values.Len() {
		v, times := values.At(i)
		if len(v) == 1 && v[0]-'0' <= 9 { // the map's "1", or a combiner's small count
			total += times * int(v[0]-'0')
			continue
		}
		n, err := strconv.Atoi(string(v))
		if err != nil {
			panic(fmt.Sprintf("workloads: wordcount got non-numeric count %q", v))
		}
		total += times * n
	}
	if 0 <= total && total < len(countTexts) {
		emit(key, countTexts[total])
		return
	}
	emit(key, strconv.AppendInt(nil, int64(total), 10))
}

// CountWords computes the reference answer directly, for output
// verification: each word of data as bytes.Fields splits it, with its
// count. It is what the map is checked against, so it shares nothing with
// wordTable. ASCII text is read in one pass, each word looked up in an
// index of the words seen so far and made a string only when it is new;
// text holding any byte from 0x80 up is split by bytes.Fields, so that
// Unicode white space separates words there too.
func CountWords(data []byte) map[string]int {
	index := make(map[string]int)
	var n []int
	for i := 0; i < len(data); {
		if data[i] >= utf8.RuneSelf {
			return countFields(data)
		}
		if fieldSpace[data[i]] {
			i++
			continue
		}
		j := i + 1
		for j < len(data) && data[j] < utf8.RuneSelf && !fieldSpace[data[j]] {
			j++
		}
		if k, ok := index[string(data[i:j])]; ok {
			n[k]++
		} else {
			index[string(data[i:j])] = len(n)
			n = append(n, 1)
		}
		i = j
	}
	counts := make(map[string]int, len(index))
	for w, k := range index {
		counts[w] = n[k]
	}
	return counts
}

// fieldSpace marks the ASCII bytes bytes.Fields splits at.
var fieldSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// countFields is CountWords on any text.
func countFields(data []byte) map[string]int {
	counts := make(map[string]int)
	for _, w := range bytes.Fields(data) {
		counts[string(w)]++
	}
	return counts
}

// ParseWordCountOutput decodes the job's part file back into a count map.
func ParseWordCountOutput(data []byte) (map[string]int, error) {
	counts := make(map[string]int)
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) == 0 {
			continue
		}
		i := bytes.IndexByte(line, '\t')
		if i < 0 {
			return nil, fmt.Errorf("workloads: malformed wordcount line %q", line)
		}
		n, err := strconv.Atoi(string(line[i+1:]))
		if err != nil {
			return nil, fmt.Errorf("workloads: malformed count in %q", line)
		}
		counts[string(line[:i])] = n
	}
	return counts, nil
}
