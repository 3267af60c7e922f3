package mapreduce

// ExecMapUnfolded is ExecMapFile without a fold table: every pair the map
// function emits is its own Rec, the layout before counted pairs.
func ExecMapUnfolded(spec *JobSpec, file string, data []byte) *MapOutput {
	return execMap(spec, file, data, maxOffset, 0)
}

// Distinct reports how many distinct pairs partition p of mo indexes and
// how many occurrences their counts add up to.
func Distinct(mo *MapOutput, p int) (pairs, occurrences int) {
	for i := range mo.Partitions[p] {
		if c := mo.counts[p]; c != nil {
			occurrences += int(c[i])
		} else {
			occurrences++
		}
	}
	return len(mo.Partitions[p]), occurrences
}

// PlainWordCountSpec is WordCount as a plain Map that emits (word, "1") for
// every occurrence, so the builder's fold table does the counting.
func PlainWordCountSpec(combiner bool) *JobSpec {
	spec := wcSpec(nil, "/out")
	if combiner {
		spec.Combine = spec.Reduce
	}
	return spec
}
