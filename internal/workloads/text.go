// Package workloads provides the three benchmark applications the paper
// evaluates — WordCount, TeraSort, and PI — as real, executing MapReduce
// jobs: generators that synthesize their inputs deterministically, job
// specifications with genuine map/reduce functions, and output verifiers
// used by the test suite.
package workloads

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"mrapid/internal/hdfs"
)

// Corpus generates deterministic English-like text for WordCount inputs.
// Words are drawn from a fixed-size vocabulary under a Zipf distribution,
// which yields the skewed word frequencies real text has (a heavy head that
// the combiner, when enabled, can collapse). The ranks are math/rand's
// Zipf(1.2, 1) over the vocabulary, drawn from the corpus's source draw for
// draw, but looked up in a precomputed table (zipfTable) rather than
// computed with an Exp and a Log per word; the text is byte for byte what
// rand.NewZipf would give.
type Corpus struct {
	slab  []byte   // the words' letters back to back, then 16 bytes of padding
	words []uint32 // word i as its offset in slab << 4 | its length
	zipf  *zipfTable
	src   *source
}

// defaultVocab is the vocabulary size of every WordCount input unless its
// configuration says otherwise.
const defaultVocab = 30000

// maxVocab bounds the vocabulary so that a word's slab offset fits in 28
// bits of its packed entry.
const maxVocab = 1 << 24

// NewCorpus builds a corpus with the given vocabulary size and seed. The
// same (size, seed) always produces the same text.
func NewCorpus(vocabSize int, seed int64) *Corpus {
	if vocabSize <= 0 || vocabSize > maxVocab {
		panic(fmt.Sprintf("workloads: vocabulary of %d words, want 1 to %d", vocabSize, maxVocab))
	}
	src := newSource(seed)
	// The words are cut from one slab, and the set of those drawn so far is
	// keyed by their letters packed five bits each (ten letters at most, none
	// packed as zero, so the length is part of the key and no key is 0). The
	// set is open-addressed over a flat table at most half full, 0 marking a
	// free slot: nothing is allocated per word, and the table is cleared and
	// kept for the next corpus rather than allocated per corpus.
	//
	// A word's length is 3 + rand.Intn(8) and each letter rand.Intn(26),
	// written out: Intn is Int31n's arithmetic over Int63's top 31 bits,
	// masking for a power of two and otherwise rejecting the draws above
	// the largest multiple of n.
	const (
		letters   = 26
		letterMax = 1<<31 - 1 - (1<<31)%letters
	)
	words := make([]uint32, vocabSize)
	slab := make([]byte, 10*vocabSize+16)
	shift := 64 - bits.Len(uint(2*vocabSize))
	pooled := seenPool.Get().(*[]uint64)
	if slots := 1 << (64 - shift); cap(*pooled) < slots {
		*pooled = make([]uint64, slots)
	}
	seen := (*pooled)[:1<<(64-shift)]
	mask := uint64(len(seen) - 1)
	end := 0
	for i := range words {
		for {
			start, packed := end, uint64(0)
			for n := 3 + src.top31()&7; n > 0; n-- {
				v := src.top31()
				for v > letterMax {
					v = src.top31()
				}
				c := v % letters
				slab[end] = 'a' + byte(c)
				end++
				packed = packed<<5 | uint64(c+1)
			}
			slot := packed * 0x9e3779b97f4a7c15 >> shift
			for seen[slot] != 0 && seen[slot] != packed {
				slot = (slot + 1) & mask
			}
			if seen[slot] == 0 {
				seen[slot] = packed
				words[i] = uint32(start<<4 | (end - start))
				break
			}
			end = start // drawn before: draw again
		}
	}
	clear(seen)
	seenPool.Put(pooled)
	return &Corpus{
		slab:  slab[:end+16],
		words: words,
		zipf:  zipfFor(vocabSize),
		src:   src,
	}
}

// seenPool keeps NewCorpus's duplicate table between corpora, cleared:
// allocating it afresh faults in 512 KiB per default-sized corpus.
var seenPool = sync.Pool{New: func() any { return new([]uint64) }}

// Generate produces approximately size bytes of newline-separated text,
// always ending cleanly at a line boundary.
func (c *Corpus) Generate(size int64) []byte {
	b, _ := c.appendWords(make([]byte, 0, size+128), size, 0)
	return endLine(b)
}

// appendWords appends words to b until it holds size bytes, the first
// starting at column line, and returns b and the column the next word
// would start at. Words are separated by a space, or by a newline once a
// line reaches 70 columns. Each word is one 16-byte store from the slab
// (whose padding keeps the last word's in bounds), cut to its length; the
// separator overwrites the byte after it.
func (c *Corpus) appendWords(b []byte, size int64, line int) ([]byte, int) {
	for int64(len(b)) < size {
		w := c.words[c.zipf.next(c.src)]
		off, n := int(w>>4), int(w&15)
		b = slices.Grow(b, 16)
		end := len(b)
		*(*[16]byte)(b[end : end+16]) = *(*[16]byte)(c.slab[off : off+16])
		b = b[:end+n]
		if line += n + 1; line >= 70 {
			b, line = append(b, '\n'), 0
		} else {
			b = append(b, ' ')
		}
	}
	return b, line
}

// endLine closes text with a newline unless it already ends with one.
func endLine(b []byte) []byte {
	if len(b) > 0 && b[len(b)-1] != '\n' {
		b = append(b, '\n')
	}
	return b
}

// InputFileName names the i-th generated input file for a job under a
// common prefix, e.g. /in/wordcount/part-00003.
func InputFileName(prefix string, i int) string {
	return fmt.Sprintf("%s/part-%05d", prefix, i)
}

// streamCache memoizes generated corpus streams by (vocabulary, seed). The
// benchmark harness builds hundreds of simulations over the same synthetic
// inputs; regenerating Zipf text each time is pure host-CPU waste, and a
// cached stream is byte-identical to a regenerated one by construction.
// streamMu guards it and resume, so simulations on different goroutines can
// share them.
var (
	streamMu    sync.Mutex
	streamCache = map[streamKey]*stream{}
)

type streamKey struct {
	vocab int
	seed  int64
}

// stream is one cached corpus stream and the Content of every file cut from
// it so far, by offset and length: each DFS that stages a file shares its
// Content, so the file's bytes are hashed at most once per process.
type stream struct {
	data   []byte
	chunks map[chunkKey]*hdfs.Content
}

type chunkKey struct{ off, n int64 }

// resume is the generator of the stream generated last, stopped where that
// stream's words end, so that a longer request for it continues it instead
// of replaying the seed: an ascending sweep generates each byte once. Only
// the last one is kept: a generator holds its whole vocabulary, and a
// workload over many seeds would pin one per seed.
var resume struct {
	key    streamKey
	corpus *Corpus
	words  int // the stream's length without the newline that closes it
	line   int // the column the next word starts at
}

// corpusFiles cuts files files of at least fileBytes bytes each, at line
// boundaries, from the start of the (vocab, seed) stream and returns their
// Contents, the cached one for each file cut before.
func corpusFiles(vocab int, seed int64, files int, fileBytes int64) []*hdfs.Content {
	streamMu.Lock()
	defer streamMu.Unlock()
	s := grownStream(streamKey{vocab, seed}, int64(files)*(fileBytes+256))
	out := make([]*hdfs.Content, files)
	var off int64
	for i := range out {
		chunk := cutAtLine(s.data[off:], fileBytes)
		k := chunkKey{off, int64(len(chunk))}
		if s.chunks[k] == nil {
			s.chunks[k] = &hdfs.Content{Data: chunk[:len(chunk):len(chunk)]}
		}
		out[i] = s.chunks[k]
		off = k.off + k.n
	}
	return out
}

// grownStream returns the cached stream for k, extended to at least n
// bytes: its data is NewCorpus(k.vocab, k.seed).Generate(m) for some m ≥ n.
// The caller holds streamMu.
func grownStream(k streamKey, n int64) *stream {
	s := streamCache[k]
	if s == nil {
		s = &stream{chunks: map[chunkKey]*hdfs.Content{}}
		streamCache[k] = s
	}
	if int64(len(s.data)) >= n {
		return s
	}
	if resume.key != k || resume.corpus == nil {
		resume.key, resume.corpus, resume.words, resume.line = k, NewCorpus(k.vocab, k.seed), 0, 0
	}
	// The words continue in a new buffer: files cut from the old one alias
	// it, and the next word goes where its closing newline is.
	b := make([]byte, resume.words, n+128)
	copy(b, s.data)
	b, resume.line = resume.corpus.appendWords(b, n, resume.line)
	resume.words = len(b)
	s.data = endLine(b)
	// The cached files move to the new buffer with their digests, so the
	// cache does not pin the old one; files already staged keep theirs.
	for ck, c := range s.chunks {
		s.chunks[ck] = c.Rebased(s.data[ck.off : ck.off+ck.n : ck.off+ck.n])
	}
	return s
}

// cutAtLine returns the prefix of data of at least n bytes ending at a line
// boundary (falling back to all of data).
func cutAtLine(data []byte, n int64) []byte {
	if n >= int64(len(data)) {
		return data
	}
	i := n
	for i < int64(len(data)) && data[i-1] != '\n' {
		i++
	}
	return data[:i]
}
