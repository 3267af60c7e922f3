package bench_test

import (
	"fmt"
	"log"
	"sort"

	"mrapid/internal/bench"
	"mrapid/internal/mapreduce"
	"mrapid/internal/workloads"
)

// The paper's submission framework end to end (§III, Fig. 6): a simulated
// four-node A3 cluster with the AM pool up, one small WordCount submitted
// twice under the same job key. With no history the first run races D+
// against U+ and the decision maker kills the slower; the second runs the
// recorded winner alone. The word counts are read back from HDFS. Every
// time printed is virtual, so the output is the same on every machine;
// `mrapid -mode speculative -files 4 -size-mb 2 -seed 7 -repeat 2` prints
// the same two runs.
func Example() {
	v := bench.VariantSpeculative()
	env, err := bench.NewEnv(bench.A3x4(), v)
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()
	spec, err := bench.StageWordCount(env, 4, 2<<20, 7)
	if err != nil {
		log.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		run := *spec
		run.OutputFile = fmt.Sprintf("/out/wc%d", i)
		res, err := env.Run(v, &run)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("run %d: %s, decided by %s, %.2f virtual seconds\n",
			i, res.Mode, res.Profile.Decision.Source, res.Elapsed())
	}
	out, err := env.DFS.Contents(mapreduce.PartFileName("/out/wc2", 0))
	if err != nil {
		log.Fatal(err)
	}
	counts, err := workloads.ParseWordCountOutput(out)
	if err != nil {
		log.Fatal(err)
	}
	words := make([]string, 0, len(counts))
	for w := range counts {
		words = append(words, w)
	}
	sort.Strings(words)
	fmt.Printf("%d distinct words; the first three:\n", len(words))
	for _, w := range words[:3] {
		fmt.Printf("  %-12s %d\n", w, counts[w])
	}
	// Output:
	// run 1: uplus, decided by race, 1.93 virtual seconds
	// run 2: uplus, decided by history, 1.93 virtual seconds
	// 25398 distinct words; the first three:
	//   aabekx       1
	//   aabund       1
	//   aacmtjxcfl   1
}
