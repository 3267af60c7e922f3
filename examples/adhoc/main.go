// Ad-hoc query burst example: the workload that motivates the paper.
// Hive/Pig-style frontends decompose a query into a series of short
// MapReduce jobs; this example fires six short WordCount-style jobs
// back-to-back, first through stock Hadoop and then through the MRapid
// framework, where the first submission speculates and every later one is
// answered from the execution history and reuses a pooled AM.
//
//	go run ./examples/adhoc
package main

import (
	"fmt"
	"log"

	"mrapid/internal/bench"
	"mrapid/internal/profiler"
	"mrapid/internal/workloads"
)

const (
	jobs      = 6
	files     = 4
	fileBytes = 5 << 20 // 5 MB: each "query stage" is a genuinely short job
)

// stageInputs synthesizes a distinct input set per job (queries touch
// different data) on the given environment.
func stageInputs(env *bench.Env, job int) ([]string, error) {
	return workloads.GenerateWordCountInput(env.DFS, env.Cluster, fmt.Sprintf("/in/q%d", job),
		workloads.WordCountConfig{Files: files, FileBytes: fileBytes, Seed: int64(100 + job)})
}

// runStockBurst submits the burst through plain Hadoop, one job at a time
// (the frontend waits for each stage's output), and returns the total
// virtual time.
func runStockBurst() (float64, error) {
	v := bench.VariantHadoop()
	env, err := bench.NewEnv(bench.A3x4(), v)
	if err != nil {
		return 0, err
	}
	var total float64
	for j := 0; j < jobs; j++ {
		inputs, err := stageInputs(env, j)
		if err != nil {
			return 0, err
		}
		spec := workloads.WordCountSpec(fmt.Sprintf("query-stage-%d", j), inputs, fmt.Sprintf("/out/q%d", j), false)
		res, err := env.Run(v, spec)
		if err != nil {
			return 0, fmt.Errorf("stage %d failed: %w", j, err)
		}
		total += res.Elapsed()
		fmt.Printf("  stock  stage %d: %6.2fs\n", j, res.Elapsed())
	}
	return total, nil
}

// runMRapidBurst submits the burst through the framework with speculative
// execution and history reuse.
func runMRapidBurst() (float64, error) {
	v := bench.VariantSpeculative()
	env, err := bench.NewEnv(bench.A3x4(), v)
	if err != nil {
		return 0, err
	}
	var total float64
	for j := 0; j < jobs; j++ {
		inputs, err := stageInputs(env, j)
		if err != nil {
			return 0, err
		}
		spec := workloads.WordCountSpec(fmt.Sprintf("query-stage-%d", j), inputs, fmt.Sprintf("/out/q%d", j), false)
		spec.JobKey = "adhoc-query-stage" // one program identity: history carries over
		res, err := env.Run(v, spec)
		if err != nil {
			return 0, fmt.Errorf("stage %d failed: %w", j, err)
		}
		tag := "speculated"
		if res.Profile.Decision.Source == profiler.ByHistory {
			tag = "from history"
		}
		total += res.Elapsed()
		fmt.Printf("  mrapid stage %d: %6.2fs  winner=%-5s (%s)\n", j, res.Elapsed(), res.Mode, tag)
	}
	fmt.Printf("  AM pool served %d dispatches with %d reserved AMs\n",
		env.FW.Pool.Dispatches, env.FW.Pool.Size())
	return total, nil
}

func main() {
	fmt.Printf("ad-hoc burst: %d short jobs (%d × %d MB each) on A3×4\n\n", jobs, files, fileBytes>>20)
	stock, err := runStockBurst()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	mrapid, err := runMRapidBurst()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nburst total: stock Hadoop %.2fs, MRapid %.2fs → %.1f%% faster\n",
		stock, mrapid, (stock-mrapid)/stock*100)
}
