// TeraSort example: generate rows with TeraGen, sort them with the
// MapReduce TeraSort (sampled total-order partitioner), and compare the two
// MRapid modes — the paper's Figure 10 scenario where U+ wins because the
// job is I/O-light and shuffle-heavy.
//
//	go run ./examples/terasort
package main

import (
	"fmt"
	"log"

	"mrapid/internal/bench"
	"mrapid/internal/workloads"
)

const rows = 400_000 // 40 MB over 4 input blocks

func runMode(v bench.Variant) (float64, error) {
	env, err := bench.NewEnv(bench.A3x4(), v)
	if err != nil {
		return 0, err
	}
	inputs, err := workloads.TeraGen(env.DFS, env.Cluster, "/in/ts", workloads.TeraGenConfig{
		Rows: rows, Files: 4, Seed: 11,
	})
	if err != nil {
		return 0, err
	}
	spec, err := workloads.TeraSortSpec(env.DFS, "terasort-example", inputs, "/out/ts", 1)
	if err != nil {
		return 0, err
	}
	res, err := env.Run(v, spec)
	if err != nil {
		return 0, err
	}
	// The point of TeraSort is a verifiably ordered output.
	if err := workloads.VerifyTeraSortOutput(env.DFS, "/out/ts", 1, rows); err != nil {
		return 0, err
	}
	return res.Elapsed(), nil
}

func main() {
	fmt.Printf("TeraSort: %d rows (%d MB) in 4 blocks on the A3×4 cluster\n",
		rows, rows*workloads.TeraRowLen/(1<<20))

	results := map[string]float64{}
	for _, v := range bench.StandardVariants() {
		secs, err := runMode(v)
		if err != nil {
			log.Fatalf("%s: %v", v.Name, err)
		}
		results[v.Name] = secs
		fmt.Printf("  %-7s %6.2f virtual seconds (output verified in total order)\n", v.Name, secs)
	}
	fmt.Printf("U+ vs stock Uber:    %.1f%% faster\n",
		(results["uber"]-results["uplus"])/results["uber"]*100)
	fmt.Printf("U+ vs D+:            %.1f%% faster (single container, no network shuffle)\n",
		(results["dplus"]-results["uplus"])/results["dplus"]*100)

	// Show how a multi-reduce total-order sort partitions: 3 reducers over
	// the same data, each part file strictly after the previous.
	env, err := bench.NewEnv(bench.A3x4(), bench.VariantUPlus())
	if err != nil {
		log.Fatal(err)
	}
	inputs, err := workloads.TeraGen(env.DFS, env.Cluster, "/in/ts", workloads.TeraGenConfig{
		Rows: rows, Files: 4, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	spec, err := workloads.TeraSortSpec(env.DFS, "terasort-3r", inputs, "/out/ts3", 3)
	if err != nil {
		log.Fatal(err)
	}
	res, err := env.Run(bench.VariantUPlus(), spec)
	if err != nil {
		log.Fatalf("3-reduce sort failed: %v", err)
	}
	if err := workloads.VerifyTeraSortOutput(env.DFS, "/out/ts3", 3, rows); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3-reduce total-order sort verified across part files (%.2fs)\n", res.Elapsed())
}
