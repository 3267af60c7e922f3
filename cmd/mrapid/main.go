// Command mrapid runs a single benchmark job on a freshly simulated Hadoop
// cluster in a chosen execution mode and reports its timeline, task
// profile, and resource metrics.
//
// Usage:
//
//	mrapid -job wordcount -mode dplus -files 8 -size-mb 10
//	mrapid -job terasort  -mode uplus -rows 800000
//	mrapid -job pi        -mode speculative -samples 400000000
//	mrapid -job wordcount -mode hadoop -cluster A2x9 -verbose
//
// With -jobs > 1 the command switches to multi-job workload mode: a stream
// of WordCount jobs is spread round-robin over -tenants capacity queues and
// driven through the JobServer admission layer, reporting makespan, latency
// quantiles, queue wait, and per-tenant fairness.
//
//	mrapid -jobs 60 -tenants 3 -arrival poisson:250ms -policy wfair
//
// With -job query the command runs a join-heavy analytics query through the
// query compiler and compares the sequential stage chain against the DAG
// scheduler (parallel branches, producer-local intermediates):
//
//	mrapid -job query -query-exec both
//	mrapid -job query -query-exec dag -node-fail 'node-01@4s:20s'
//
// -cluster, -seed, -node-fail, -shuffle-service and -memo apply to
// all three modes (-memo needs the framework, which -mode hadoop and uber
// lack). A flag the run cannot honour is an error (exit status 2), never
// silently ignored.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mrapid/internal/bench"
	"mrapid/internal/core"
	"mrapid/internal/flight"
	"mrapid/internal/mapreduce"
	"mrapid/internal/metrics"
	"mrapid/internal/profiler"
	"mrapid/internal/query"
	"mrapid/internal/report"
	"mrapid/internal/trace"
	"mrapid/internal/workloads"
	"mrapid/internal/yarn"
)

var (
	job      = flag.String("job", "wordcount", "workload: wordcount | terasort | pi | query")
	mode     = flag.String("mode", "speculative", "mode: hadoop | uber | dplus | uplus | speculative")
	cluster  = flag.String("cluster", "A3x4", "cluster: A3x4 | A2x9")
	files    = flag.Int("files", 4, "wordcount/terasort input files")
	sizeMB   = flag.Float64("size-mb", 10, "wordcount file size in MB")
	rows     = flag.Int64("rows", 400_000, "terasort rows")
	samples  = flag.Int64("samples", 400_000_000, "pi total samples")
	maps     = flag.Int("maps", 4, "pi map tasks")
	verbose  = flag.Bool("verbose", false, "print per-task profile (query job: every result row)")
	traceN   = flag.Int("trace", 0, "print the last N scheduling/task trace events")
	traceOut = flag.String("trace-out", "", "write the run's span tree as Chrome trace_event JSON (load in Perfetto / chrome://tracing); with the flight recorder on, series ride along as counter lanes")
	metOut   = flag.String("metrics-out", "", "write the phase report and metrics registry as JSON")
	phaseRep = flag.Bool("report", false, "print the critical-path phase-attribution report")
	jobs     = flag.Int("jobs", 1, "number of jobs; > 1 switches to multi-job workload mode through the JobServer")
	tenants  = flag.Int("tenants", 2, "workload mode: tenant capacity queues the jobs are spread over")
	arrival  = flag.String("arrival", "burst", "workload mode: arrival process — burst | uniform:<gap> | poisson:<mean>")
	policy   = flag.String("policy", "fifo", "workload mode: admission policy — fifo | wfair")
	repeat   = flag.Int("repeat", 1, "speculative mode: submit the job N times under its own job key, so run 1 races and runs 2..N run the recorded winner alone (or are served from the cache with -memo)")
	showHist = flag.Bool("show-history", false, "print the execution-record history (the winner recorded per job key) after the run")
	qexec    = flag.String("query-exec", "both", "query job: stage scheduling — chain | dag | both (compare)")
	runOpts  = bench.RunFlags()
	profiles = bench.ProfileFlags()
)

// runMode is what the command does with the cluster it builds.
type runMode int

const (
	singleJob runMode = 1 << iota
	workload
	queryJob
)

var modeNames = map[runMode]string{singleJob: "a single job", workload: "-jobs N", queryJob: "-job query"}

// honoured lists, for every flag that only some modes can honour, those
// modes. Flags absent from it work everywhere.
var honoured = map[string]runMode{
	"mode": singleJob, "files": singleJob, "size-mb": singleJob, "rows": singleJob,
	"samples": singleJob, "maps": singleJob, "trace": singleJob, "trace-out": singleJob,
	"metrics-out": singleJob, "report": singleJob, "repeat": singleJob, "show-history": singleJob,
	"verbose":    singleJob | queryJob,
	"series-out": singleJob | workload, "dash-out": singleJob | workload,
	"jobs":    singleJob | workload,
	"tenants": workload, "arrival": workload, "policy": workload,
	"query-exec": queryJob,
}

// checkFlags names the first explicitly set flag the run would ignore: one
// the mode cannot honour, a single-job flag the -mode value has no use for,
// or -shuffle-codec without the service it configures. value reads a
// flag's effective value.
func checkFlags(m runMode, set []string, value func(name string) string) error {
	for _, name := range set {
		if modes, ok := honoured[name]; ok && modes&m == 0 {
			return fmt.Errorf("-%s has no effect with %s", name, modeNames[m])
		}
		switch mode := value("mode"); {
		case m == singleJob && mode != "speculative" && (name == "repeat" || name == "show-history"):
			return fmt.Errorf("-%s has no effect with -mode %s (only speculative decides)", name, mode)
		case m == singleJob && name == "memo" && (mode == "hadoop" || mode == "uber"):
			return fmt.Errorf("-memo has no effect with -mode %s (no framework, no cache)", mode)
		case name == "shuffle-codec" && value("shuffle-service") != "true":
			return fmt.Errorf("-shuffle-codec has no effect without -shuffle-service")
		}
	}
	return nil
}

func main() {
	flag.Parse()
	m := singleJob
	if *job == "query" {
		m = queryJob
	} else if *jobs > 1 {
		m = workload
	}
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	value := func(name string) string { return flag.Lookup(name).Value.String() }
	if err := checkFlags(m, set, value); err != nil {
		fmt.Fprintf(os.Stderr, "mrapid: %v\n", err)
		os.Exit(2)
	}
	if err := dispatch(m); err != nil {
		fmt.Fprintf(os.Stderr, "mrapid: %v\n", err)
		os.Exit(1)
	}
}

// dispatch turns the shared flags into the one cluster setup and run
// description all three modes start from.
func dispatch(m runMode) (err error) {
	stopProfiles, err := profiles.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); err == nil {
			err = perr
		}
	}()
	mkSetup, ok := map[string]func() bench.ClusterSetup{"A3x4": bench.A3x4, "A2x9": bench.A2x9}[*cluster]
	if !ok {
		return fmt.Errorf("unknown cluster %q", *cluster)
	}
	opts, err := runOpts()
	if err != nil {
		return err
	}
	setup := mkSetup()
	setup.Seed = opts.Seed
	switch m {
	case queryJob:
		return runQuery(setup, opts)
	case workload:
		return runWorkload(setup, opts)
	}
	return run(setup, opts)
}

// printHistory dumps the execution-record store, one entry per job key.
func printHistory(h *core.History) {
	fmt.Println("history (exact-match records):")
	for _, e := range h.Entries() {
		fmt.Printf("  %-14s winner=%-6s runs=%-2d elapsed=%.2fs wins=%v\n",
			e.Job, e.Winner, e.Runs, e.Elapsed.Seconds(), e.Wins)
	}
}

// runWorkload is the multi-job mode: a WordCount stream through the
// JobServer on the chosen cluster, reported as a throughput/fairness table.
func runWorkload(setup bench.ClusterSetup, opts bench.Options) error {
	pol, ok := map[string]core.AdmissionPolicy{
		"fifo": core.PolicyFIFO, "wfair": core.PolicyWeightedFair,
	}[*policy]
	if !ok {
		return fmt.Errorf("unknown admission policy %q (want fifo or wfair)", *policy)
	}
	res, err := bench.RunThroughput(setup, bench.WorkloadConfig{
		Jobs: *jobs, Tenants: *tenants, Arrival: *arrival, Policy: pol,
	}, opts)
	if err != nil {
		return err
	}
	fmt.Printf("workload: %d jobs, %d tenants, arrival=%s, policy=%s, cluster=%s\n",
		res.Jobs, *tenants, *arrival, res.Policy, *cluster)
	fmt.Printf("makespan: %.2f virtual seconds\n", res.Makespan)
	fmt.Printf("job latency: p50=%.2fs p99=%.2fs  queue wait: mean=%.3fs\n", res.P50, res.P99, res.MeanWait)
	fmt.Printf("fairness (Jain over per-tenant mean latency): %.4f\n", res.Fairness)
	fmt.Println("per tenant:")
	for _, name := range res.TenantOrder {
		ts := res.Tenants[name]
		fmt.Printf("  %-10s jobs=%-3d mean-latency=%.2fs mean-wait=%.3fs\n", name, ts.Jobs, ts.MeanLatency, ts.MeanWait)
	}
	if opts.MemoCache {
		fmt.Printf("memo cache: hits=%d misses=%d\n", res.MemoHits, res.MemoMisses)
	}
	if res.SLO != nil {
		fmt.Printf("flight recorder: %d samples\n", res.FlightSamples)
		fmt.Println("per-tenant SLO (queue wait):")
		for _, name := range res.TenantOrder {
			if rep := res.SLO[name]; rep != nil {
				fmt.Printf("  %-10s %s\n", name, rep)
			}
		}
		if err := res.WriteFlightArtifacts(opts, fmt.Sprintf("workload: %d jobs, policy=%s, cluster=%s", *jobs, *policy, *cluster)); err != nil {
			return err
		}
		if opts.SeriesOut != "" {
			fmt.Printf("series dump written to %s\n", opts.SeriesOut)
		}
		if opts.DashOut != "" {
			fmt.Printf("dashboard written to %s\n", opts.DashOut)
		}
	}
	return nil
}

// runQuery is the query demo: a join-heavy analytics query (two group-by
// branches feeding a join and an order-by) over the synthetic sales/returns
// warehouse, compiled to a stage DAG and executed one stage at a time, with
// branches overlapping, or both for a side-by-side comparison. Each execution
// gets a fresh simulation so the schedules never share history or cluster
// state, and stages run as plain D+ jobs so the difference is scheduling, not
// race outcomes.
func runQuery(setup bench.ClusterSetup, opts bench.Options) error {
	schedules := map[string][]string{"chain": {"chain"}, "dag": {"dag"}, "both": {"chain", "dag"}}[*qexec]
	if schedules == nil {
		return fmt.Errorf("unknown -query-exec %q (want chain, dag, or both)", *qexec)
	}
	plan := bench.WarehouseQuery(250, 40, true)
	fmt.Println("logical plan:", plan)

	ran := map[string]*bench.QueryStreamResult{}
	for _, name := range schedules {
		r, err := bench.RunQueryStream(setup, bench.QueryStream{
			Plans: []*query.Plan{plan}, Sequential: name == "chain",
		}, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res := r.Results[0]
		fmt.Printf("%-5s %d stages in %.2f virtual seconds, max %d in flight, winners %v",
			name, res.Stages, r.Makespan, res.MaxConcurrent, res.Winners)
		if res.Recoveries > 0 {
			fmt.Printf(", %d lineage recoveries", res.Recoveries)
		}
		if res.AggParseErrors > 0 {
			fmt.Printf(", %d skipped aggregate values", res.AggParseErrors)
		}
		fmt.Println()
		if st := r.Store; st.HDFSBytesAvoided > 0 {
			fmt.Printf("      intermediates: %d B kept out of HDFS (%d B in memory, %d B on producer disks)\n",
				st.HDFSBytesAvoided, st.MemBytes, st.DiskBytes)
		}
		if opts.MemoCache {
			fmt.Printf("      memo cache: hits=%d misses=%d\n", r.MemoHits, r.MemoMisses)
		}
		ran[name] = r
	}
	if chain, dag := ran["chain"], ran["dag"]; chain != nil && dag != nil {
		if err := bench.SameQueryRows("chain", chain, "dag", dag); err != nil {
			return err
		}
		fmt.Printf("dag vs chain: %.2fs vs %.2fs (%.1f%% faster), %d identical result rows\n",
			dag.Makespan, chain.Makespan, (chain.Makespan-dag.Makespan)/chain.Makespan*100, len(dag.Results[0].Rows))
	}
	res := ran[schedules[0]].Results[0]
	n := len(res.Rows)
	if !*verbose && n > 5 {
		n = 5
	}
	fmt.Printf("result: %v (top %d of %d rows)\n", []string(res.Table.Schema), n, len(res.Rows))
	for _, r := range res.Rows[:n] {
		fmt.Printf("  %v\n", []string(r))
	}
	return nil
}

// run is the single-job mode.
func run(setup bench.ClusterSetup, opts bench.Options) error {
	mkVariant, ok := map[string]func() bench.Variant{
		"hadoop": bench.VariantHadoop, "uber": bench.VariantUber,
		"dplus": bench.VariantDPlus, "uplus": bench.VariantUPlus,
		"speculative": bench.VariantSpeculative,
	}[*mode]
	if !ok {
		return fmt.Errorf("unknown mode %q", *mode)
	}
	variant := mkVariant()
	env, err := bench.NewEnv(opts.Apply(setup), variant)
	if err != nil {
		return err
	}
	// -trace N alone keeps a ring of the last N events; the artifacts want
	// the whole log.
	observe := *traceOut != "" || *metOut != "" || *phaseRep || opts.FlightRecorder
	if observe {
		env.EnableObservability(max(*traceN, 1<<16))
	} else if *traceN > 0 {
		env.EnableObservability(*traceN)
	}
	if opts.FlightRecorder {
		// Single-job mode has no admission queue, so the recorder runs
		// without an SLO tracker: cluster gauges and counter rates still
		// fill the dashboard.
		env.EnableFlightRecorder(flight.SLOConfig{})
	}

	var spec *mapreduce.JobSpec
	switch *job {
	case "wordcount":
		spec, err = bench.StageWordCount(env, *files, int64(*sizeMB*(1<<20)), opts.Seed)
	case "terasort":
		spec, err = bench.StageTeraSort(env, *rows, *files, opts.Seed)
	case "pi":
		spec, err = bench.StagePi(env, *maps, *samples)
	default:
		err = fmt.Errorf("unknown job %q", *job)
	}
	if err != nil {
		return err
	}
	// The figure sweeps name jobs by their size; the CLI's are the -job value.
	spec.Name, spec.OutputFile = *job, "/out"

	runs := 1
	if *mode == "speculative" {
		runs = max(*repeat, 1)
	}
	var res *mapreduce.Result
	for i := 0; i < runs; i++ {
		run := *spec
		if runs > 1 {
			// Every run keeps the job's key, so the first records its
			// winner and the rest run it alone. Earlier runs land in
			// scratch outputs; the final one writes the real /out the
			// verifiers read. The flight artifacts cover run 1.
			run.Name = fmt.Sprintf("%s#run%d", spec.Name, i+1)
			if i < runs-1 {
				run.OutputFile = fmt.Sprintf("%s.run%d", spec.OutputFile, i+1)
			}
		}
		if res, err = env.Run(variant, &run); err != nil {
			return err
		}
		if runs > 1 {
			how := map[string]string{
				profiler.ByRace:    "raced",
				profiler.ByMemo:    "served from the memo cache",
				profiler.ByHistory: "pre-decided (exact history)",
			}[res.Profile.Decision.Source]
			fmt.Printf("run %d/%d: winner=%s %s elapsed=%.2fs\n", i+1, runs, res.Mode, how, res.Elapsed())
		}
	}
	prof := res.Profile
	if d := prof.Decision; *mode == "speculative" {
		fmt.Printf("speculative execution: winner=%s fromHistory=%v\n",
			res.Mode, d.Source == profiler.ByHistory)
		if d.EstimateD > 0 {
			fmt.Printf("estimates: t_d=%.2fs t_u=%.2fs (decided at %s)\n",
				d.EstimateD.Seconds(), d.EstimateU.Seconds(), d.At)
		}
		if *showHist {
			printHistory(env.FW.History)
		}
	}

	label := fmt.Sprintf("job=%s mode=%s cluster=%s", *job, res.Mode, *cluster)
	fmt.Println(label)
	fmt.Printf("completion time: %.2f virtual seconds\n", prof.Elapsed().Seconds())
	fmt.Printf("timeline: submitted=%s amReady=%s firstTask=%s mapsDone=%s done=%s\n",
		prof.SubmittedAt, prof.AMReadyAt, prof.FirstTaskAt, prof.MapsDoneAt, prof.DoneAt)
	fmt.Printf("profile: %s\n", prof.Summarize())

	switch *job {
	case "pi":
		if est, err := workloads.PiEstimate(env.DFS, spec.OutputFile); err == nil {
			fmt.Printf("pi estimate: %.6f\n", est)
		}
	case "terasort":
		if err := workloads.VerifyTeraSortOutput(env.DFS, spec.OutputFile, 1, *rows); err != nil {
			return fmt.Errorf("output verification failed: %w", err)
		}
		fmt.Printf("terasort output verified: %d rows in total order\n", *rows)
	}

	reg := metrics.New()
	reg.Set("yarn.am_heartbeats", env.RM.Metrics.AMHeartbeats)
	reg.Set("yarn.nm_heartbeats", env.RM.Metrics.NMHeartbeats)
	reg.Set("yarn.allocations", env.RM.Metrics.Allocations)
	reg.Set("yarn.node_local", env.RM.Metrics.ByLocality[yarn.NodeLocal])
	reg.Set("yarn.rack_local", env.RM.Metrics.ByLocality[yarn.RackLocal])
	reg.Set("yarn.any_locality", env.RM.Metrics.ByLocality[yarn.Any])
	reg.Set("hdfs.bytes_read", env.DFS.BytesRead)
	reg.Set("hdfs.bytes_written", env.DFS.BytesWritten)
	reg.Set("hdfs.local_reads", env.DFS.LocalReads)
	reg.Set("hdfs.rack_reads", env.DFS.RackReads)
	reg.Set("hdfs.remote_reads", env.DFS.RemoteReads)
	fmt.Println("metrics:")
	reg.Dump(os.Stdout)

	if *traceN > 0 {
		fmt.Printf("trace (last %d events):\n", *traceN)
		env.Trace.Dump(os.Stdout)
	}

	if observe {
		rep, err := report.Analyze(env.Trace, prof.Root())
		if err != nil {
			return err
		}
		if *phaseRep {
			fmt.Println("phase report:")
			if err := rep.Render(os.Stdout); err != nil {
				return err
			}
		}
		if *traceOut != "" {
			// With the recorder on, its series ride along as Chrome counter
			// lanes so Perfetto shows gauges above the span tree.
			var lanes []trace.CounterSeries
			if env.Flight != nil {
				lanes = env.Flight.CounterSeries()
			}
			err := bench.WriteArtifact(*traceOut, func(w io.Writer) error {
				return env.Trace.WriteChromeTraceCounters(w, lanes)
			})
			if err != nil {
				return err
			}
			fmt.Printf("chrome trace written to %s (%d spans, %d dropped events)\n",
				*traceOut, len(env.Trace.Spans()), env.Trace.Dropped())
		}
		if *metOut != "" {
			if err := bench.WriteArtifact(*metOut, func(w io.Writer) error { return report.WriteJSON(w, rep, env.Reg) }); err != nil {
				return err
			}
			fmt.Printf("metrics summary written to %s\n", *metOut)
		}
		if env.Flight != nil {
			if err := env.WriteFlightArtifacts(opts, label); err != nil {
				return err
			}
			if opts.SeriesOut != "" {
				fmt.Printf("series dump written to %s (%d samples, %d series)\n",
					opts.SeriesOut, env.Flight.Samples(), len(env.Flight.SeriesNames()))
			}
			if opts.DashOut != "" {
				fmt.Printf("dashboard written to %s\n", opts.DashOut)
			}
		}
	}

	if *verbose {
		fmt.Println("tasks:")
		for _, tp := range prof.Tasks {
			fmt.Printf("  %-7s %2d on %-8s read=%-8v compute=%-8v spill=%-8v merge=%-8v in=%-9d out=%-9d local=%v\n",
				tp.Kind, tp.Index, tp.Node, tp.ReadDur.Round(1e6), tp.ComputeDur.Round(1e6),
				tp.SpillDur.Round(1e6), tp.MergeDur.Round(1e6), tp.InputBytes, tp.OutputBytes, tp.NodeLocal)
		}
	}
	return nil
}
