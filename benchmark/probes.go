package main

import (
	"fmt"
	"runtime"
	"time"

	"mrapid/internal/core"
	"mrapid/internal/costmodel"
	"mrapid/internal/flight"
	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
	"mrapid/internal/memo"
	"mrapid/internal/metrics"
	"mrapid/internal/profiler"
	"mrapid/internal/query"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
	"mrapid/internal/workloads"
	"mrapid/internal/yarn"
)

// Probes exercise one layer in isolation through its exported functions, at
// fixed iteration counts and on fixed inputs, so two commits run the same
// operations. They run once, in the parent, after the children have ended.

// probeSeed fixes every probe input; probes do not take the run's seed.
const probeSeed = 7

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// perOp runs fn iters times and returns host nanoseconds and heap
// allocations per call.
func perOp(iters int, fn func(i int)) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(iters), float64(after.Mallocs-before.Mallocs) / float64(iters)
}

type probes map[string]float64

// latency records a per-call probe in the unit its name ends in (_ns or
// _us) with its allocations twin.
func (p probes) latency(name string, iters int, fn func(i int)) {
	ns, allocs := perOp(iters, fn)
	switch name[len(name)-3:] {
	case "_us":
		ns /= 1e3
	case "_ns":
	default:
		panic("probe " + name + " has no latency unit")
	}
	p[name] = ns
	p[name[:len(name)-3]+"_allocs"] = allocs
}

// rate records a throughput probe: units of work per host second.
func (p probes) rate(name string, iters int, workPerCall float64, fn func(i int)) {
	ns, _ := perOp(iters, fn)
	p[name] = workPerCall / (ns / 1e9)
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("probe set-up: %v", err))
	}
	return v
}

func newProbeCluster(eng *sim.Engine, workers int) *topology.Cluster {
	return must(topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: workers, Racks: max(2, workers/32)}))
}

// runProbes returns every kind-4 per-layer metric.
func runProbes() probes {
	p := probes{}
	p.sim()
	p.schedulers()
	p.hdfs()
	p.workloads()
	p.dataPath()
	p.core()
	p.memo()
	p.query()
	p.observability()
	return p
}

// sim: 64 self-rescheduling timers, the engine's schedule-pop-fire cycle.
func (p probes) sim() {
	const events = 400_000
	eng := sim.NewEngine()
	left := events
	var tick func()
	tick = func() {
		if left--; left > 0 {
			eng.After(time.Duration(1+left%97)*time.Millisecond, tick)
		}
	}
	for i := 0; i < 64; i++ {
		eng.After(time.Duration(i)*time.Millisecond, tick)
	}
	ns, allocs := perOp(1, func(int) { eng.Run() })
	fired := float64(eng.Fired())
	p["sim.probe_event_ns"] = ns / fired
	p["sim.probe_event_allocs"] = allocs / fired
}

// schedulers: one allocate heartbeat carrying 8 asks with node and rack
// hints against a 256-node RM. D+ answers inside OnAllocate (Algorithm 1);
// stock queues in OnAllocate and grants on node heartbeats, so its call is
// followed by node updates until the 8 asks are placed.
func (p probes) schedulers() {
	const calls = 64 // 512 containers, inside the cluster's 1792 slots
	for _, s := range []struct {
		name  string
		sched yarn.Scheduler
	}{
		{"yarn.probe_stock_alloc_us", yarn.NewStockScheduler()},
		{"core.probe_dplus_alloc_us", core.NewDPlusScheduler(core.FullDPlus())},
	} {
		eng := sim.NewEngine()
		cluster := newProbeCluster(eng, 256)
		rm := yarn.NewRM(eng, cluster, costmodel.Default(), s.sched)
		workers := cluster.Workers()
		app := rm.NewApp("probe")
		trackers := rm.Trackers()
		next := 0
		p.latency(s.name, calls, func(i int) {
			asks := make([]*yarn.Ask, 8)
			for a := range asks {
				n := workers[(i*8+a)*31%len(workers)]
				asks[a] = &yarn.Ask{
					App: app, Resource: topology.Resource{VCores: 1, MemoryMB: 1024},
					PreferredNodes: []*topology.Node{n}, PreferredRacks: []string{n.Rack}, Tag: "map",
				}
			}
			sink = s.sched.OnAllocate(rm, app, asks)
			for s.sched.Queued() > 0 {
				s.sched.OnNodeUpdate(rm, trackers[next%len(trackers)])
				next++
			}
		})
	}
}

func (p probes) hdfs() {
	eng := sim.NewEngine()
	cluster := newProbeCluster(eng, 8)
	params := costmodel.Default()
	dfs := hdfs.New(eng, cluster, params.HDFSBlockBytes, params.Replication, probeSeed)
	data := workloads.NewCorpus(30000, probeSeed).Generate(4 << 20)
	workers := cluster.Workers()
	files := make([]string, 32)
	p.rate("hdfs.probe_put_mb_s", len(files), float64(len(data))/mib, func(i int) {
		files[i] = fmt.Sprintf("/probe/part-%05d", i)
		must(dfs.PutInstant(files[i], data, workers[i%len(workers)]))
	})
	p.latency("hdfs.probe_splits_us", 2000, func(int) { sink = must(dfs.Splits(files)) })
	p.rate("hdfs.probe_digest_mb_s", 20000, float64(len(data))/mib, func(i int) {
		sink = must(dfs.FileDigest(files[i%len(files)]))
	})
}

func (p probes) workloads() {
	const corpusBytes = 4 << 20
	p.rate("workloads.probe_corpus_mb_s", 3, corpusBytes/mib, func(i int) {
		sink = workloads.NewCorpus(30000, probeSeed+int64(i)).Generate(corpusBytes)
	})
	eng := sim.NewEngine()
	cluster := newProbeCluster(eng, 4)
	params := costmodel.Default()
	dfs := hdfs.New(eng, cluster, params.HDFSBlockBytes, params.Replication, probeSeed)
	const rows = 100_000
	// A seed per call: TeraGen caches generated rows by configuration.
	p.rate("workloads.probe_teragen_mrows_s", 3, rows/1e6, func(i int) {
		must(workloads.TeraGen(dfs, cluster, fmt.Sprintf("/probe/tera%d", i),
			workloads.TeraGenConfig{Rows: rows, Files: 4, Seed: probeSeed + int64(i)}))
	})
}

// dataPath: the pure map and reduce executors on WordCount text (with and
// without combiner) and on TeraSort rows, plus the shuffle service's
// per-node consolidation and the spec fingerprint the memo cache keys on.
func (p probes) dataPath() {
	const (
		splits     = 4
		splitBytes = 1 << 20
		teraRows   = 40_000
	)
	eng := sim.NewEngine()
	cluster := newProbeCluster(eng, 4)
	params := costmodel.Default()
	dfs := hdfs.New(eng, cluster, params.HDFSBlockBytes, params.Replication, probeSeed)

	text := make([][]byte, splits)
	corpus := workloads.NewCorpus(30000, probeSeed)
	for i := range text {
		text[i] = corpus.Generate(splitBytes)
	}
	wc := workloads.WordCountSpec("probe-wc", nil, "/probe/out", false)
	wcCombine := workloads.WordCountSpec("probe-wcc", nil, "/probe/out", true)
	wcCombine.NumReduces = 4

	teraFiles := must(workloads.TeraGen(dfs, cluster, "/probe/ts", workloads.TeraGenConfig{Rows: splits * teraRows, Files: splits, Seed: probeSeed}))
	tera := must(workloads.TeraSortSpec(dfs, "probe-ts", teraFiles, "/probe/tsout", 1))
	rows := make([][]byte, splits)
	for i, f := range teraFiles {
		rows[i] = must(dfs.Contents(f))
	}

	wcOuts := make([]*mapreduce.MapOutput, splits)
	wccOuts := make([]*mapreduce.MapOutput, splits)
	teraOuts := make([]*mapreduce.MapOutput, splits)
	p.rate("mapreduce.probe_map_wc_mb_s", splits, splitBytes/mib, func(i int) {
		wcOuts[i] = mapreduce.ExecMapFile(wc, "", text[i])
	})
	p.rate("mapreduce.probe_map_wc_combine_mb_s", splits, splitBytes/mib, func(i int) {
		wccOuts[i] = mapreduce.ExecMapFile(wcCombine, "", text[i])
	})
	p.rate("mapreduce.probe_map_tera_mb_s", splits, float64(len(rows[0]))/mib, func(i int) {
		teraOuts[i] = mapreduce.ExecMapFile(tera, teraFiles[i], rows[i])
	})

	pairs := func(outs []*mapreduce.MapOutput) float64 {
		var n int
		for _, mo := range outs {
			for _, part := range mo.Partitions {
				n += len(part)
			}
		}
		return float64(n) / 1e6
	}
	p.rate("mapreduce.probe_reduce_wc_mpairs_s", 3, pairs(wcOuts), func(int) {
		sink = mapreduce.EncodePairs(mapreduce.ExecReduce(wc, 0, wcOuts))
	})
	p.rate("mapreduce.probe_reduce_tera_mpairs_s", 3, pairs(teraOuts), func(int) {
		sink = mapreduce.EncodePairs(mapreduce.ExecReduce(tera, 0, teraOuts))
	})
	p.rate("shuffle.probe_consolidate_mpairs_s", 20, pairs(wccOuts), func(int) {
		sink = mapreduce.ConsolidateGroup(wcCombine, wccOuts)
	})
	p.latency("mapreduce.probe_fingerprint_us", 20000, func(int) { sink = wc.SpecFingerprint() })
}

// core: the decision maker's Equation 2 against Equation 3.
func (p probes) core() {
	in := core.InputsFromProfile(profiler.Summary{AvgMapCPU: 3 * time.Second, AvgIn: 10 << 20, AvgOut: 20 << 20},
		8, 28, 4, topology.A3, costmodel.Default())
	p.latency("core.probe_decide_ns", 200_000, func(i int) {
		in.NM = 1 + i%16
		sink = core.Decide(in)
	})
}

func (p probes) memo() {
	eng := sim.NewEngine()
	cluster := newProbeCluster(eng, 4)
	cache := memo.New(nil, cluster.Workers(), memo.Config{})
	parts := [][]byte{make([]byte, 32<<10), make([]byte, 32<<10)}
	const entries = 512
	keys := make([]string, entries)
	for i := range keys {
		keys[i] = fmt.Sprintf("probe-spec-%04d", i)
	}
	p.latency("memo.probe_commit_us", entries, func(i int) { cache.Commit(keys[i], uint64(i), parts, 5) })
	p.latency("memo.probe_lookup_ns", 200_000, func(i int) {
		k := i % entries
		sink, _ = cache.Lookup(keys[k], uint64(k))
	})
}

// query: compiling the benchmark's own join-group-order plan.
func (p probes) query() {
	eng := sim.NewEngine()
	cluster := newProbeCluster(eng, 4)
	params := costmodel.Default()
	dfs := hdfs.New(eng, cluster, params.HDFSBlockBytes, params.Replication, probeSeed)
	cat := query.NewCatalog(dfs, cluster)
	row := func(i int) query.Row {
		return query.Row{fmt.Sprint(i), fmt.Sprintf("c%05d", i%97), fmt.Sprint(i % 1000)}
	}
	rows := make([]query.Row, 2000)
	for i := range rows {
		rows[i] = row(i)
	}
	must(cat.Create("sales", query.Schema{"id", "cell", "amount"}, rows, 4))
	must(cat.Create("returns", query.Schema{"rid", "cell", "refund"}, rows[:1000], 3))
	plan := qrPlan{100, 20, true}
	p.latency("query.probe_compile_us", 2000, func(i int) {
		sink = must(query.CompileWith(cat, "probe", plan.plan(), query.CompileOptions{}))
	})
}

// observability: what one sample costs in each of the recording layers.
func (p probes) observability() {
	reg := metrics.New()
	counter := reg.CounterHandle("probe_total", "node", "node-001")
	hist := reg.HistogramHandle("probe_seconds", "kind", "map")
	p.latency("metrics.probe_counter_ns", 2_000_000, func(int) { counter.Inc() })
	p.latency("metrics.probe_histogram_ns", 2_000_000, func(i int) { hist.Observe(float64(i%1000) / 250) })

	eng := sim.NewEngine()
	tlog := trace.New(eng, 1<<16)
	p.latency("trace.probe_span_ns", 200_000, func(int) {
		tlog.EndSpan(tlog.StartSpan(0, "probe", "span", "map"))
	})

	// One recorder tick over a registry the size a 256-node run builds:
	// a launch counter per node plus the fixed series.
	eng = sim.NewEngine()
	reg = metrics.New()
	for n := 0; n < 256; n++ {
		reg.CounterHandle("yarn_containers_launched_total", "node", fmt.Sprintf("node-%03d", n)).Inc()
	}
	rec := flight.New(eng, reg, nil, flight.Config{Interval: 250 * time.Millisecond})
	rec.AddGauge(func(sample func(string, float64)) { sample("yarn_pending_asks", 3) })
	rec.Start()
	const ticks = 400
	ns, allocs := perOp(1, func(int) { eng.RunUntil(sim.Time(0).Add(ticks * 250 * time.Millisecond)) })
	rec.Stop()
	p["flight.probe_tick_us"] = ns / 1e3 / float64(rec.Samples())
	p["flight.probe_tick_allocs"] = allocs / float64(rec.Samples())
}
