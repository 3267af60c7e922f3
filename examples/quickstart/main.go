// Quickstart: build a simulated 4-node Hadoop cluster, start the MRapid
// framework, and run one WordCount through speculative dual-mode execution.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"mrapid/internal/core"
	"mrapid/internal/costmodel"
	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
	"mrapid/internal/profiler"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/workloads"
	"mrapid/internal/yarn"
)

func main() {
	// 1. A discrete-event engine drives everything; all times below are
	//    virtual.
	eng := sim.NewEngine()

	// 2. One NameNode + four A3 DataNodes across two racks (the paper's
	//    first testbed), with HDFS and YARN on top.
	cluster, err := topology.NewCluster(eng, topology.Spec{
		Instance: topology.A3, Workers: 4, Racks: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	params := costmodel.Default()
	dfs := hdfs.New(eng, cluster, params.HDFSBlockBytes, params.Replication, 42)
	rm := yarn.NewRM(eng, cluster, params, core.NewDPlusScheduler(core.FullDPlus()))
	rm.Start()
	rt := mapreduce.NewRuntime(eng, cluster, dfs, rm, params)

	// 3. The MRapid framework: proxy, AM pool (the paper's 3 reserved AMs),
	//    history.
	fw := core.NewFramework(rt, 3, core.FullUPlus())
	poolReady := false
	eng.After(0, func() { fw.Start(func() { poolReady = true }) })
	eng.RunUntil(sim.Time(1 << 36))
	if !poolReady {
		log.Fatal("AM pool failed to start")
	}
	fmt.Printf("cluster up at %s: %d workers, AM pool of %d reserved\n",
		eng.Now(), len(cluster.Workers()), fw.Pool.Size())

	// 4. Stage four 10 MB text files and build the WordCount job.
	inputs, err := workloads.GenerateWordCountInput(dfs, cluster, "/in/wc", workloads.WordCountConfig{
		Files: 4, FileBytes: 10 << 20, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	spec := workloads.WordCountSpec("quickstart-wc", inputs, "/out/wc", false)

	// 5. Submit speculatively: with no history, both D+ and U+ race; the
	//    decision maker estimates both (Equations 2–3) and kills the loser.
	var result *mapreduce.Result
	eng.After(0, func() {
		fw.Submit(core.ModeSpeculative, spec, func(r *mapreduce.Result) {
			result = r
			rm.Stop()
		})
	})
	eng.RunUntil(sim.Time(1 << 42))
	if result == nil || result.Err != nil {
		log.Fatalf("job failed: %+v", result)
	}

	// What the decision maker did is on the result's profile.
	d := result.Profile.Decision
	fmt.Printf("winner: %s (from history: %v)\n", result.Mode, d.Source == profiler.ByHistory)
	if d.EstimateD > 0 {
		fmt.Printf("estimator verdict at %s: t_d=%.2fs t_u=%.2fs\n",
			d.At, d.EstimateD.Seconds(), d.EstimateU.Seconds())
	}
	fmt.Printf("completion: %.2f virtual seconds\n", result.Elapsed())

	// 6. Read the job output back from HDFS.
	out, err := dfs.Contents(mapreduce.PartFileName("/out/wc", 0))
	if err != nil {
		log.Fatal(err)
	}
	counts, err := workloads.ParseWordCountOutput(out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("output: %d distinct words, e.g.:\n", len(counts))
	shown := 0
	for w, n := range counts {
		fmt.Printf("  %-12s %d\n", w, n)
		shown++
		if shown == 5 {
			break
		}
	}

	// 7. Submit the same program again: the history answers instantly and
	//    only the winning mode runs.
	spec2 := workloads.WordCountSpec("quickstart-wc-2", inputs, "/out/wc2", false)
	var second *mapreduce.Result
	eng.After(0, func() {
		rm.Start()
		fw.Submit(core.ModeSpeculative, spec2, func(r *mapreduce.Result) {
			second = r
			rm.Stop()
		})
	})
	eng.RunUntil(eng.Now().Add(1 << 42))
	if second == nil || second.Err != nil {
		log.Fatalf("second job failed: %+v", second)
	}
	fmt.Printf("second run: winner=%s fromHistory=%v, %.2fs (vs %.2fs speculative)\n",
		second.Mode, second.Profile.Decision.Source == profiler.ByHistory, second.Elapsed(), result.Elapsed())
}
