package workloads

import (
	"bytes"
	"fmt"
	"strconv"

	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
)

// Grep reproduces the Hadoop example Grep program: two chained MapReduce
// jobs. The first (search) counts every occurrence of a literal pattern's
// containing words; the second (sort) orders the matches by descending
// count. The chain is exactly the kind of multi-job short workload the
// MRapid submission framework exists for — the second job is tiny and pure
// overhead under stock Hadoop.
const (
	GrepMapRate    = 10e6 // substring scan is cheaper than tokenizing
	GrepReduceRate = 40e6
)

// GrepSearchSpec builds the first job: emit (word, 1) for every
// whitespace-separated token containing pattern; reduce sums counts. The
// map closure captures the pattern, so the pattern is the spec's
// ClosureSig. The sum combiner is associative, so it is valid both per task
// and cross-task (the shuffle service's in-node combiner re-applies it when
// merging a node's outputs). The sort job below deliberately has no
// combiner: its reduce re-keys each record, which a combiner must never do.
func GrepSearchSpec(name string, inputs []string, output, pattern string) *mapreduce.JobSpec {
	pat := []byte(pattern)
	return &mapreduce.JobSpec{
		Name:       name,
		JobKey:     "grep-search",
		InputFiles: inputs,
		OutputFile: output,
		NumReduces: 1,
		Format:     mapreduce.LineFormat{},
		Map: func(_, line []byte, emit mapreduce.Emit) {
			for _, w := range bytes.Fields(line) {
				if bytes.Contains(w, pat) {
					emit(w, one)
				}
			}
		},
		Combine:    wordCountReduce,
		Reduce:     wordCountReduce,
		MapRate:    GrepMapRate,
		ReduceRate: GrepReduceRate,
		ClosureSig: "pattern=" + pattern,
	}
}

// GrepSortSpec builds the second job over the first job's output: re-key
// each (word, count) line by an order-inverted fixed-width count so the
// single reducer's sorted order is descending by count (Hadoop's Grep uses
// a decreasing comparator; an order-inverting key encodes the same thing in
// our runtime).
func GrepSortSpec(name string, searchOutput []string, output string) *mapreduce.JobSpec {
	return &mapreduce.JobSpec{
		Name:       name,
		JobKey:     "grep-sort",
		InputFiles: searchOutput,
		OutputFile: output,
		NumReduces: 1,
		Format:     mapreduce.LineFormat{},
		Map: func(_, line []byte, emit mapreduce.Emit) {
			i := bytes.IndexByte(line, '\t')
			if i < 0 {
				return
			}
			word, countText := line[:i], line[i+1:]
			n, err := strconv.ParseInt(string(countText), 10, 64)
			if err != nil {
				return
			}
			// Larger counts must sort first: key on MaxInt64 - n, zero
			// padded to fixed width.
			key := fmt.Sprintf("%019d", int64(1<<62)-n)
			emit([]byte(key), append(append([]byte{}, countText...), append([]byte("\t"), word...)...))
		},
		Reduce: func(_ []byte, values mapreduce.Values, emit mapreduce.Emit) {
			for j := range values.Len() {
				v, n := values.At(j)
				i := bytes.IndexByte(v, '\t')
				for range n {
					emit(v[:i], v[i+1:]) // (count, word) lines, descending
				}
			}
		},
		MapRate:    GrepMapRate,
		ReduceRate: GrepReduceRate,
		ClosureSig: "grep-sort", // its closures capture nothing
	}
}

// GrepMatch is one (count, word) result row.
type GrepMatch struct {
	Word  string
	Count int64
}

// ParseGrepOutput decodes the sort job's output into descending matches.
func ParseGrepOutput(dfs *hdfs.DFS, output string) ([]GrepMatch, error) {
	data, err := dfs.Contents(mapreduce.PartFileName(output, 0))
	if err != nil {
		return nil, err
	}
	var out []GrepMatch
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		i := bytes.IndexByte(line, '\t')
		if i < 0 {
			return nil, fmt.Errorf("workloads: malformed grep line %q", line)
		}
		n, err := strconv.ParseInt(string(line[:i]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workloads: malformed grep count in %q", line)
		}
		out = append(out, GrepMatch{Word: string(line[i+1:]), Count: n})
	}
	for i := 1; i < len(out); i++ {
		if out[i].Count > out[i-1].Count {
			return nil, fmt.Errorf("workloads: grep output not descending at %d", i)
		}
	}
	return out, nil
}
