// Package mrapid_test hosts the top-level benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation. Each benchmark
// regenerates its experiment on the simulated cluster and reports the
// headline numbers (virtual completion times and improvement percentages)
// as custom benchmark metrics.
//
// Benchmarks default to a reduced input scale so `go test -bench=.` stays
// responsive on a laptop; set MRAPID_BENCH_SCALE=1 to reproduce the paper's
// full input sizes (the numbers recorded in EXPERIMENTS.md), or use
// `go run ./cmd/mrapid-bench` which defaults to full scale.
package mrapid_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"mrapid/internal/bench"
	"mrapid/internal/core"
	"mrapid/internal/costmodel"
	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

// benchScale reads MRAPID_BENCH_SCALE (default 0.25).
func benchScale() float64 {
	if s := os.Getenv("MRAPID_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.25
}

// runFigure drives one registered experiment b.N times and reports metrics.
func runFigure(b *testing.B, id string) *bench.Figure {
	b.Helper()
	run, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := bench.Options{Scale: benchScale(), Seed: 1}
	var fig *bench.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = run(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	return fig
}

// reportModeMetrics attaches the figure's headline comparisons to the
// benchmark output: mean completion seconds per mode (virtual) and the mean
// improvement percentages the paper quotes.
func reportModeMetrics(b *testing.B, fig *bench.Figure) {
	b.Helper()
	means := map[string]float64{}
	for _, c := range fig.Columns {
		var sum float64
		for i := range fig.Points {
			sum += fig.Get(i, c)
		}
		means[c] = sum / float64(len(fig.Points))
		b.ReportMetric(means[c], c+"-vsec")
	}
	if h, okH := means["hadoop"]; okH && h > 0 {
		if d, ok := means["dplus"]; ok {
			b.ReportMetric((h-d)/h*100, "D+improv%")
		}
	}
	if u, okU := means["uber"]; okU && u > 0 {
		if up, ok := means["uplus"]; ok {
			b.ReportMetric((u-up)/u*100, "U+improv%")
		}
	}
}

// BenchmarkTable2InstanceCatalog reproduces Table II (the Azure instance
// catalog backing every cluster configuration).
func BenchmarkTable2InstanceCatalog(b *testing.B) {
	fig := runFigure(b, "table2")
	if len(fig.Points) != 3 {
		b.Fatalf("catalog rows = %d", len(fig.Points))
	}
}

// BenchmarkFig07WordCountFileCount reproduces Figure 7: WordCount on the
// A3 cluster with 10 MB files, file count 1→16, all four modes.
func BenchmarkFig07WordCountFileCount(b *testing.B) {
	reportModeMetrics(b, runFigure(b, "fig7"))
}

// BenchmarkFig08WordCountFileSize reproduces Figure 8: WordCount with 4
// files of 5→40 MB.
func BenchmarkFig08WordCountFileSize(b *testing.B) {
	reportModeMetrics(b, runFigure(b, "fig8"))
}

// BenchmarkFig09WordCountFixedTotal reproduces Figure 9: 60 MB total input
// split across 2→4 files.
func BenchmarkFig09WordCountFixedTotal(b *testing.B) {
	reportModeMetrics(b, runFigure(b, "fig9"))
}

// BenchmarkFig10TeraSort reproduces Figure 10: TeraSort over 100k→1600k
// rows in 4 blocks.
func BenchmarkFig10TeraSort(b *testing.B) {
	reportModeMetrics(b, runFigure(b, "fig10"))
}

// BenchmarkFig11Pi reproduces Figure 11: PI over 100m→1600m samples.
func BenchmarkFig11Pi(b *testing.B) {
	reportModeMetrics(b, runFigure(b, "fig11"))
}

// BenchmarkFig12ContainersPerCore reproduces Figure 12: 1 vs 2 containers
// per core on the A2 cluster.
func BenchmarkFig12ContainersPerCore(b *testing.B) {
	reportModeMetrics(b, runFigure(b, "fig12"))
}

// BenchmarkFig13ClusterShape reproduces Figure 13: equal-cost 10-node A2 vs
// 5-node A3 clusters.
func BenchmarkFig13ClusterShape(b *testing.B) {
	fig := runFigure(b, "fig13")
	for _, c := range fig.Columns {
		var sum float64
		for i := range fig.Points {
			sum += fig.Get(i, c)
		}
		b.ReportMetric(sum/float64(len(fig.Points)), c+"-vsec")
	}
}

// BenchmarkFig14DPlusAblation reproduces Figure 14: the contribution of
// each D+ optimization (scheduler, AM pool, locality, communication).
func BenchmarkFig14DPlusAblation(b *testing.B) {
	fig := runFigure(b, "fig14")
	base := fig.Points[0].Seconds["elapsed"]
	final := fig.Points[len(fig.Points)-1].Seconds["elapsed"]
	b.ReportMetric(base, "stock-vsec")
	b.ReportMetric(final, "dplus-vsec")
	if base > 0 {
		b.ReportMetric((base-final)/base*100, "improv%")
	}
}

// BenchmarkFig15UPlusAblation reproduces Figure 15: the contribution of
// each U+ optimization (parallel maps, AM pool, memory cache,
// communication).
func BenchmarkFig15UPlusAblation(b *testing.B) {
	fig := runFigure(b, "fig15")
	base := fig.Points[0].Seconds["elapsed"]
	final := fig.Points[len(fig.Points)-1].Seconds["elapsed"]
	b.ReportMetric(base, "uber-vsec")
	b.ReportMetric(final, "uplus-vsec")
	if base > 0 {
		b.ReportMetric((base-final)/base*100, "improv%")
	}
}

// BenchmarkAblationEstimator validates the decision maker's cost model
// (Equations 2–3, supplementary to §III-C): across the Figure 7 sweep it
// reports how often the estimated winner matches the measured winner.
func BenchmarkAblationEstimator(b *testing.B) {
	fig := runFigure(b, "estimator")
	for _, c := range fig.Columns {
		var sum float64
		for i := range fig.Points {
			sum += fig.Get(i, c)
		}
		b.ReportMetric(sum/float64(len(fig.Points)), c)
	}
}

// BenchmarkDPlusAllocateTenantQueues measures one D+ allocate heartbeat
// (Algorithm 1 answering 8 asks that carry node and rack hints) on the
// cluster_stream shape: 256 nodes in 8 racks with three tenant queues of
// 0.7/3 each. With queues configured every candidate placement asks the RM
// whether the tenant's ceiling allows it, which is the cost a probe without
// queues never sees. A fresh RM every 64 calls keeps the 512 containers
// inside each tenant's share.
func BenchmarkDPlusAllocateTenantQueues(b *testing.B) {
	const tenants, perBeat, beatsPerRM = 3, 8, 64
	var (
		rm    *yarn.RM
		sched *core.DPlusScheduler
		apps  [tenants]*yarn.App
		beats [beatsPerRM][]*yarn.Ask
	)
	fresh := func() {
		eng := sim.NewEngine()
		cluster, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: 256, Racks: 8})
		if err != nil {
			b.Fatal(err)
		}
		sched = core.NewDPlusScheduler(core.FullDPlus())
		rm = yarn.NewRM(eng, cluster, costmodel.Default(), sched)
		queues := make([]yarn.QueueConfig, tenants)
		for i := range queues {
			queues[i] = yarn.QueueConfig{Name: fmt.Sprintf("tenant-%d", i), Capacity: 0.7 / tenants}
		}
		if err := rm.ConfigureQueues(queues); err != nil {
			b.Fatal(err)
		}
		for i, q := range queues {
			apps[i] = rm.NewAppInQueue("bench", q.Name)
		}
		workers := cluster.Workers()
		for i := range beats {
			beats[i] = make([]*yarn.Ask, perBeat)
			for a := range beats[i] {
				n := workers[(i*perBeat+a)*31%len(workers)]
				beats[i][a] = &yarn.Ask{
					App: apps[i%tenants], Resource: topology.Resource{VCores: 1, MemoryMB: 1024},
					PreferredNodes: []*topology.Node{n}, PreferredRacks: []string{n.Rack}, Tag: "map",
				}
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		beat := i % beatsPerRM
		if beat == 0 {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		if got := sched.OnAllocate(rm, apps[beat%tenants], beats[beat]); len(got) != perBeat {
			b.Fatalf("beat %d granted %d of %d asks", beat, len(got), perBeat)
		}
	}
}

// BenchmarkUploadArtifacts measures staging one job's jar and configuration
// into HDFS — step 1 of every submission — including the virtual-time events
// of the two pipeline writes. Restaging under one name keeps the namespace
// at two files, so the number is the steady per-job cost.
func BenchmarkUploadArtifacts(b *testing.B) {
	eng := sim.NewEngine()
	cluster, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: 4, Racks: 2})
	if err != nil {
		b.Fatal(err)
	}
	params := costmodel.Default()
	dfs := hdfs.New(eng, cluster, params.HDFSBlockBytes, params.Replication, 1)
	rt := mapreduce.NewRuntime(eng, cluster, dfs, yarn.NewRM(eng, cluster, params, yarn.NewStockScheduler()), params)
	spec := &mapreduce.JobSpec{Name: "bench"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.UploadArtifacts(spec, func(err error) {
			if err != nil {
				b.Fatal(err)
			}
		})
		eng.Run()
	}
}
