// Package workloads provides the three benchmark applications the paper
// evaluates — WordCount, TeraSort, and PI — as real, executing MapReduce
// jobs: generators that synthesize their inputs deterministically, job
// specifications with genuine map/reduce functions, and output verifiers
// used by the test suite.
package workloads

import (
	"bytes"
	"fmt"
	"math/rand"
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
	var buf bytes.Buffer
	buf.Grow(int(size) + 128)
	line := 0
	for int64(buf.Len()) < size {
		w := c.vocab[c.zipf.Uint64()]
		buf.Write(w)
		line += len(w) + 1
		if line >= 70 {
			buf.WriteByte('\n')
			line = 0
		} else {
			buf.WriteByte(' ')
		}
	}
	b := buf.Bytes()
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
// Not safe for concurrent use, like the rest of the single-threaded
// simulator.
var streamCache = map[streamKey][]byte{}

type streamKey struct {
	vocab int
	seed  int64
}

// corpusStream returns at least n bytes of the deterministic corpus stream
// for (vocab, seed), extending the cached stream as needed.
func corpusStream(vocab int, seed int64, n int64) []byte {
	k := streamKey{vocab, seed}
	s := streamCache[k]
	if int64(len(s)) < n {
		// Regenerate from scratch at the larger size: Corpus generation is
		// stateful, so extending requires replaying from the seed anyway.
		s = NewCorpus(vocab, seed).Generate(n)
		streamCache[k] = s
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
