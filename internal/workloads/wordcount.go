package workloads

import (
	"bytes"
	"fmt"
	"strconv"

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
		vocab = 30000
	}
	// One long deterministic stream per (vocab, seed), cut into per-file
	// chunks at line boundaries. Cached across runs: every experiment that
	// asks for the same configuration gets byte-identical files.
	stream := corpusStream(vocab, cfg.Seed, int64(cfg.Files)*(cfg.FileBytes+256))
	workers := cluster.Workers()
	var names []string
	for i := 0; i < cfg.Files; i++ {
		name := InputFileName(prefix, i)
		writer := workers[i%len(workers)]
		chunk := cutAtLine(stream, cfg.FileBytes)
		stream = stream[len(chunk):]
		if _, err := dfs.PutInstant(name, chunk, writer); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}

// WordCountSpec builds the WordCount job over the given input files.
func WordCountSpec(name string, inputs []string, output string, combiner bool) *mapreduce.JobSpec {
	spec := &mapreduce.JobSpec{
		Name:       name,
		JobKey:     "wordcount",
		InputFiles: inputs,
		OutputFile: output,
		NumReduces: 1,
		Format:     mapreduce.LineFormat{},
		Map:        wordCountMap,
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

func wordCountMap(_, line []byte, emit mapreduce.Emit) {
	// Manual tokenization: bytes.Fields would allocate a fresh slice of
	// slices per line, and this function runs over every byte of every
	// experiment's input.
	start := -1
	for i, c := range line {
		if c == ' ' || c == '\t' {
			if start >= 0 {
				emit(line[start:i], one)
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		emit(line[start:], one)
	}
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
// verification in tests.
func CountWords(data []byte) map[string]int {
	counts := make(map[string]int)
	for _, w := range bytes.Fields(data) {
		counts[string(w)]++
	}
	return counts
}

// ParseWordCountOutput decodes the job's part file back into a count map.
func ParseWordCountOutput(data []byte) (map[string]int, error) {
	counts := make(map[string]int)
	for _, line := range bytes.Split(data, []byte("\n")) {
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
