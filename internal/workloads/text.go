// Package workloads provides the three benchmark applications the paper
// evaluates — WordCount, TeraSort, and PI — as real, executing MapReduce
// jobs: generators that synthesize their inputs deterministically, job
// specifications with genuine map/reduce functions, and output verifiers
// used by the test suite.
package workloads

import (
	"fmt"
	"math/rand"
	"sync"
)

// Corpus generates deterministic English-like text for WordCount inputs.
// Words are drawn from a fixed-size vocabulary under a Zipf distribution,
// which yields the skewed word frequencies real text has (a heavy head that
// the combiner, when enabled, can collapse).
type Corpus struct {
	vocab [][]byte
	zipf  *rand.Zipf
	rng   *rand.Rand
}

// NewCorpus builds a corpus with the given vocabulary size and seed. The
// same (size, seed) always produces the same text.
func NewCorpus(vocabSize int, seed int64) *Corpus {
	if vocabSize <= 0 {
		panic("workloads: vocabulary must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	// The words are cut from one slab, and the set of those drawn so far is
	// keyed by their letters packed five bits each (ten letters at most, none
	// packed as zero, so the length is part of the key): nothing is allocated
	// per word.
	const letters = "abcdefghijklmnopqrstuvwxyz"
	vocab := make([][]byte, vocabSize)
	slab := make([]byte, 0, 10*vocabSize)
	seen := make(map[uint64]bool, vocabSize)
	for i := range vocab {
		for {
			start, packed := len(slab), uint64(0)
			for n := 3 + rng.Intn(8); n > 0; n-- {
				c := rng.Intn(len(letters))
				slab = append(slab, letters[c])
				packed = packed<<5 | uint64(c+1)
			}
			if !seen[packed] {
				seen[packed] = true
				vocab[i] = slab[start:len(slab):len(slab)]
				break
			}
			slab = slab[:start] // drawn before: draw again
		}
	}
	return &Corpus{
		vocab: vocab,
		zipf:  rand.NewZipf(rng, 1.2, 1.0, uint64(vocabSize-1)),
		rng:   rng,
	}
}

// Generate produces approximately size bytes of newline-separated text,
// always ending cleanly at a line boundary.
func (c *Corpus) Generate(size int64) []byte {
	b, _ := c.appendWords(make([]byte, 0, size+128), size, 0)
	return endLine(b)
}

// appendWords appends words to b until it holds size bytes, the first
// starting at column line, and returns b and the column the next word
// would start at. Words are separated by a space, or by a newline once a
// line reaches 70 columns.
func (c *Corpus) appendWords(b []byte, size int64, line int) ([]byte, int) {
	for int64(len(b)) < size {
		w := c.vocab[c.zipf.Uint64()]
		b = append(b, w...)
		if line += len(w) + 1; line >= 70 {
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
	streamCache = map[streamKey][]byte{}
)

type streamKey struct {
	vocab int
	seed  int64
}

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

// corpusStream returns at least n bytes of the deterministic corpus stream
// for (vocab, seed) — NewCorpus(vocab, seed).Generate(m) for some m ≥ n —
// extending the cached stream as needed.
func corpusStream(vocab int, seed int64, n int64) []byte {
	k := streamKey{vocab, seed}
	streamMu.Lock()
	defer streamMu.Unlock()
	s := streamCache[k]
	if int64(len(s)) >= n {
		return s
	}
	if resume.key != k || resume.corpus == nil {
		resume.key, resume.corpus, resume.words, resume.line = k, NewCorpus(vocab, seed), 0, 0
	}
	// The words continue in a new buffer: files cut from the old one alias
	// it, and the next word goes where its closing newline is.
	b := make([]byte, resume.words, n+128)
	copy(b, s)
	b, resume.line = resume.corpus.appendWords(b, n, resume.line)
	resume.words = len(b)
	s = endLine(b)
	streamCache[k] = s
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
