package mapreduce

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
// every occurrence, so each repeat reaches the merge as a pair of its own.
func PlainWordCountSpec(combiner bool) *JobSpec {
	spec := wcSpec(nil, "/out")
	spec.Map, spec.MapFor = wcTestMap, nil
	if combiner {
		spec.Combine = spec.Reduce
	}
	return spec
}
