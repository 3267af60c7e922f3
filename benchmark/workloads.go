package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"mrapid/internal/bench"
	"mrapid/internal/core"
	"mrapid/internal/costmodel"
	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
	"mrapid/internal/memo"
	"mrapid/internal/query"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/workloads"
	"mrapid/internal/yarn"
)

// workload is one set of inputs the benchmark runs. Every size below is a
// constant of the benchmark: the seed reaches the input generators (corpus
// words, TeraSort keys, warehouse rows) and nothing else.
type workload struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json
	Size string // what a pass runs, as sized on the machine in the README
	run  func(p *pass)
}

var workloadList = []workload{
	{
		Name: "wc_modes",
		Why:  "WordCount without combiner, 2 and 16 files x 4 modes: duplicate-heavy record path, one map pass then four reduce-side merges per point",
		Size: "A3x4, 1 MiB files, U+ cache budget x0.1, files in {2,16} x hadoop/uber/dplus/uplus, 1 reduce, 8 jobs",
		run:  runWCModes,
	},
	{
		Name: "tera_modes",
		Why:  "TeraSort 100k and 500k rows x 4 modes: the same record path on unique keys, nothing to combine or group",
		Size: "A3x4, 4 blocks, rows in {100k,500k} x hadoop/uber/dplus/uplus, 1 reduce, 8 jobs",
		run:  runTeraModes,
	},
	{
		Name: "shuffle_combine",
		Why:  "WordCount with combiner, 4 reduces, shuffle service off and on: map-side sort-combine and internal/shuffle, which the others bypass",
		Size: "A3x4, 8 x 3 MiB files, 4 reduces, hadoop/uber/dplus/uplus x {service off, service + lz codec}, 8 jobs",
		run:  runShuffleCombine,
	},
	{
		Name: "cluster_stream",
		Why:  "1100 small jobs, Poisson open loop on 256 nodes, 3 tenants: sim, yarn and core do the host work; the only true p99",
		Size: "A3x256, 1100 WordCount jobs of 4 x 20 KiB over 64 input sets, 3 tenants weighted-fair, AM pool 16, D+/U+ alternating, one fixed Poisson trace of mean 300 ms",
		run:  runClusterStream,
	},
	{
		Name: "query_repeat",
		Why:  "3 join-group-order queries, their repeats and a variant, memo cache on: the only path through query, the DAG runner and memo",
		Size: "A3x4, sales 200k rows / returns 100k rows, 7 queries in sequence through DAGRunner, AM pool 6, memo cache on, MapCache off",
		run:  runQueryRepeat,
	},
}

func findWorkload(name string) *workload {
	for i := range workloadList {
		if workloadList[i].Name == name {
			return &workloadList[i]
		}
	}
	return nil
}

// horizon bounds one simulation; a job still unfinished after this much
// virtual time counts as failed. Same value as bench's own.
const horizon = sim.Time(1 << 42)

// outputSum is the FNV-64a of a job's part files in partition order.
func outputSum(dfs *hdfs.DFS, spec *mapreduce.JobSpec) (uint64, error) {
	h := fnv.New64a()
	for part := 0; part < spec.NumReduces; part++ {
		data, err := dfs.Contents(mapreduce.PartFileName(spec.OutputFile, part))
		if err != nil {
			return 0, err
		}
		h.Write(data)
	}
	return h.Sum64(), nil
}

// modeJob is one job under one of bench's variants in a fresh simulation,
// the unit the paper's figure sweeps are made of.
type modeJob struct {
	point   string // jobs of one point read the same bytes
	label   string // distinguishes jobs of one point beyond the variant
	setup   bench.ClusterSetup
	variant bench.Variant
	// stage synthesizes the input into env's DFS and builds the job. It
	// runs inside the set-up phase.
	stage func(env *bench.Env) (*mapreduce.JobSpec, error)
	// check verifies the committed output.
	check func(env *bench.Env, spec *mapreduce.JobSpec) error
}

// runModeJob runs j to completion and returns the checksum of its output.
func (p *pass) runModeJob(j modeJob) (sum uint64, ok bool) {
	what := j.point + "/" + j.variant.Name + j.label
	var env *bench.Env
	var spec *mapreduce.JobSpec
	var err error
	p.setupPhase(func() {
		p.span("bench.newenv", func() { env, err = bench.NewEnv(j.setup, j.variant) })
		if err != nil {
			return
		}
		if p.traced {
			env.EnableObservability(1 << 16)
		}
		spec, err = j.stage(env)
	})
	if err != nil {
		p.op(what, err)
		return 0, false
	}
	defer env.Close()

	var res *mapreduce.Result
	p.simRun(func() { res, err = env.Run(j.variant, spec) })
	if err != nil {
		p.op(what, err)
		return 0, false
	}
	elapsed := res.Elapsed()
	p.job(j.variant.Name, elapsed)
	p.makespan += elapsed
	p.slot += elapsed // one job, no admission queue: cost 1 × its execution time

	p.verify(func() {
		if sum, err = outputSum(env.DFS, spec); err == nil {
			err = j.check(env, spec)
		}
	})
	p.op(what, err)
	if p.traced {
		p.ledger.account(p, env, []jobRun{{spec: spec, res: res, point: j.point}})
	}
	fmt.Fprintf(p.digest, "%s=%016x;", what, sum)
	return sum, err == nil
}

// sameOutput fails the op when a mode's output differs from the point's
// first: every mode must commit identical bytes.
func (p *pass) sameOutput(point string, sums []uint64) {
	for _, s := range sums {
		if s != sums[0] {
			p.failed++
			p.failures = append(p.failures, fmt.Sprintf("%s: outputs differ across modes: %016x", point, sums))
			return
		}
	}
}

// scaledCache is bench's A3x4 with the U+ cache budget scaled the way
// bench.Options.Scale scales it, so the cache knee sits inside the sweep.
func scaledCache(scale float64) bench.ClusterSetup {
	setup := bench.A3x4()
	setup.Params.UberCacheBytes = int64(float64(setup.Params.UberCacheBytes) * scale)
	return setup
}

// checkWordCount compares a WordCount job's single part file with want.
func checkWordCount(dfs *hdfs.DFS, spec *mapreduce.JobSpec, want map[string]int) error {
	got := map[string]int{}
	for part := 0; part < spec.NumReduces; part++ {
		data, err := dfs.Contents(mapreduce.PartFileName(spec.OutputFile, part))
		if err != nil {
			return err
		}
		counts, err := workloads.ParseWordCountOutput(data)
		if err != nil {
			return err
		}
		for w, n := range counts {
			if _, dup := got[w]; dup {
				return fmt.Errorf("word %q in two partitions", w)
			}
			got[w] = n
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("wordcount has %d words, want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			return fmt.Errorf("wordcount[%q] = %d, want %d", w, got[w], n)
		}
	}
	return nil
}

// referenceCounts counts the words of the staged input directly.
func referenceCounts(dfs *hdfs.DFS, files []string) (map[string]int, error) {
	var all []byte
	for _, f := range files {
		data, err := dfs.Contents(f)
		if err != nil {
			return nil, err
		}
		all = append(all, data...)
	}
	return workloads.CountWords(all), nil
}

// wordCountPoint runs one WordCount configuration under the four standard
// variants, each optionally with the shuffle service, and checks every
// output against a direct count and against the other modes.
func (p *pass) wordCountPoint(point string, setup bench.ClusterSetup, cfg workloads.WordCountConfig, reduces int, services []bool) {
	var want map[string]int
	var sums []uint64
	cfg.Seed = p.seed
	for _, service := range services {
		for _, v := range bench.StandardVariants() {
			j := modeJob{point: point, setup: setup, variant: v}
			if service {
				j.label = "+svc"
				j.setup.Params.ShuffleService = true
				j.setup.Params.ShuffleCodec = "lz"
			}
			j.stage = func(env *bench.Env) (*mapreduce.JobSpec, error) {
				var names []string
				var err error
				p.span("workloads.generate", func() {
					names, err = workloads.GenerateWordCountInput(env.DFS, env.Cluster, "/in/"+point, cfg)
				})
				if err != nil {
					return nil, err
				}
				spec := workloads.WordCountSpec(point, names, "/out/"+point, cfg.Combiner)
				spec.NumReduces = reduces
				return spec, nil
			}
			j.check = func(env *bench.Env, spec *mapreduce.JobSpec) error {
				if want == nil {
					var err error
					if want, err = referenceCounts(env.DFS, spec.InputFiles); err != nil {
						return err
					}
				}
				return checkWordCount(env.DFS, spec, want)
			}
			if sum, ok := p.runModeJob(j); ok {
				sums = append(sums, sum)
			}
		}
	}
	p.sameOutput(point, sums)
}

const (
	wcFileBytes  = 1 << 20
	wcCacheScale = 0.1
)

var wcFileCounts = []int{2, 16}

func runWCModes(p *pass) {
	for _, files := range wcFileCounts {
		p.wordCountPoint(fmt.Sprintf("wc%d", files), scaledCache(wcCacheScale),
			workloads.WordCountConfig{Files: files, FileBytes: wcFileBytes}, 1, []bool{false})
	}
}

const (
	scFiles     = 8
	scFileBytes = 3 << 20
	scReduces   = 4
)

func runShuffleCombine(p *pass) {
	p.wordCountPoint("sc", bench.A3x4(),
		workloads.WordCountConfig{Files: scFiles, FileBytes: scFileBytes, Combiner: true}, scReduces, []bool{false, true})
}

const teraBlocks = 4

var teraRows = []int64{100_000, 500_000}

func runTeraModes(p *pass) {
	for _, rows := range teraRows {
		point := fmt.Sprintf("tera%dk", rows/1000)
		var sums []uint64
		for _, v := range bench.StandardVariants() {
			sum, ok := p.runModeJob(modeJob{
				point: point, setup: bench.A3x4(), variant: v,
				stage: func(env *bench.Env) (*mapreduce.JobSpec, error) {
					var names []string
					var spec *mapreduce.JobSpec
					var err error
					p.span("workloads.generate", func() {
						names, err = workloads.TeraGen(env.DFS, env.Cluster, "/in/"+point,
							workloads.TeraGenConfig{Rows: rows, Files: teraBlocks, Seed: p.seed})
					})
					if err != nil {
						return nil, err
					}
					p.span("workloads.terasample", func() {
						spec, err = workloads.TeraSortSpec(env.DFS, point, names, "/out/"+point, 1)
					})
					return spec, err
				},
				check: func(env *bench.Env, spec *mapreduce.JobSpec) error {
					return workloads.VerifyTeraSortOutput(env.DFS, spec.OutputFile, 1, rows)
				},
			})
			if ok {
				sums = append(sums, sum)
			}
		}
		p.sameOutput(point, sums)
	}
}

// startFramework assembles the submission framework by hand, the way
// bench.RunThroughput does, so the JobServer can install the tenant queues
// before the AM pool starts and the pool's containers are charged to the
// default queue. It brings the pool up on the virtual clock.
func startFramework(env *bench.Env, pool int, cfg core.JobServerConfig) (*core.Framework, *core.JobServer, error) {
	fw := core.NewFramework(env.RT, pool, core.FullUPlus())
	srv, err := core.NewJobServer(fw, cfg)
	if err != nil {
		return nil, nil, err
	}
	ready := false
	env.Eng.After(0, func() { fw.Start(func() { ready = true }) })
	env.Eng.RunUntil(sim.Time(1 << 36))
	if !ready {
		return nil, nil, fmt.Errorf("AM pool failed to start")
	}
	env.FW = fw
	return fw, srv, nil
}

// frameworkVariant is the D+ scheduler with the framework left for
// startFramework to build.
func frameworkVariant() bench.Variant {
	v := bench.VariantDPlus()
	v.UseFramework = false
	return v
}

const (
	csWorkers   = 256
	csRacks     = 8
	csJobs      = 1100
	csSets      = 64
	csFiles     = 4
	csFileBytes = 20 << 10
	csTenants   = 3
	csPool      = 16
	csMeanGap   = 300 * time.Millisecond
	// The arrival schedule is one fixed draw, replayed like a trace. Drawn
	// from the run's seed it moved p99 latency between 6.9 and 10.6 virtual
	// seconds over ten seeds, which no bound could hold.
	csArrivalSeed = 1
)

// poissonArrivals returns n absolute offsets with exponential gaps. The
// schedule is fixed before the run and every submission is an engine event
// at its offset, so the load is an open loop on the virtual clock: the
// generator cannot run late, and latency counts from the scheduled arrival.
func poissonArrivals(n int, mean time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	var at time.Duration
	for i := range out {
		at += time.Duration(rng.ExpFloat64() * float64(mean))
		out[i] = at
	}
	return out
}

// waitObserver collects JobServer queue waits and forwards to next.
type waitObserver struct {
	waits []float64
	next  core.AdmissionObserver
}

func (w *waitObserver) JobAdmitted(tenant string, wait time.Duration) {
	w.waits = append(w.waits, wait.Seconds())
	if w.next != nil {
		w.next.JobAdmitted(tenant, wait)
	}
}

func (w *waitObserver) JobCompleted(tenant string, missed bool) {
	if w.next != nil {
		w.next.JobCompleted(tenant, missed)
	}
}

func runClusterStream(p *pass) {
	const what = "cluster_stream"
	setup := bench.ClusterSetup{Instance: topology.A3, Workers: csWorkers, Racks: csRacks, Params: costmodel.Default(), Seed: 1}
	var env *bench.Env
	var srv *core.JobServer
	var sets [][]string
	var err error
	obs := &waitObserver{}
	p.setupPhase(func() {
		p.span("bench.newenv", func() { env, err = bench.NewEnv(setup, frameworkVariant()) })
		if err != nil {
			return
		}
		if p.traced {
			env.EnableObservability(1 << 16)
			if p.flight {
				obs.next = env.EnableFlightRecorder(bench.DefaultSLO()).SLO()
			}
		}
		queues := make([]yarn.QueueConfig, csTenants)
		for i := range queues {
			queues[i] = yarn.QueueConfig{Name: fmt.Sprintf("tenant-%d", i), Capacity: 0.7 / csTenants}
		}
		p.span("core.ampool_start", func() {
			_, srv, err = startFramework(env, csPool, core.JobServerConfig{Queues: queues, Policy: core.PolicyWeightedFair})
		})
		if err != nil {
			return
		}
		if p.traced {
			srv.Observer = obs
		}
		p.span("workloads.generate", func() {
			for m := 0; m < csSets && err == nil; m++ {
				var names []string
				names, err = workloads.GenerateWordCountInput(env.DFS, env.Cluster, fmt.Sprintf("/in/cs/%d", m),
					workloads.WordCountConfig{Files: csFiles, FileBytes: csFileBytes, Seed: p.seed*1000 + int64(m)})
				sets = append(sets, names)
			}
		})
	})
	if err != nil {
		p.op(what, err)
		return
	}
	defer env.Close()

	arrivals := poissonArrivals(csJobs, csMeanGap, csArrivalSeed)
	specs := make([]*mapreduce.JobSpec, csJobs)
	results := make([]*mapreduce.Result, csJobs)
	latency := make([]float64, csJobs)
	backlog := make([]int, csJobs)
	submitErrs := make([]error, csJobs)
	done := 0
	var lastDone sim.Time
	start := env.Eng.Now()
	for i := range specs {
		i := i
		tenant := fmt.Sprintf("tenant-%d", i%csTenants)
		mode := core.ModeDPlus
		if i%2 == 1 {
			mode = core.ModeUPlus
		}
		specs[i] = workloads.WordCountSpec(fmt.Sprintf("wc-%d", i), sets[i%csSets], fmt.Sprintf("/out/cs/%d", i), false)
		env.Eng.After(arrivals[i], func() {
			due := env.Eng.Now()
			submitErrs[i] = srv.Submit(tenant, mode, specs[i], func(res *mapreduce.Result) {
				results[i] = res
				lastDone = env.Eng.Now()
				latency[i] = lastDone.Sub(due).Seconds()
				if done++; done == csJobs {
					env.RM.Stop()
					env.Flight.StopIfRunning()
				}
			})
			backlog[i] = srv.Pending()
		})
	}
	p.simRun(func() { env.Eng.RunUntil(horizon) })

	first := start.Add(arrivals[0])
	p.makespan += lastDone.Sub(first).Seconds()
	p.slot += srv.SlotSeconds
	var jobs []jobRun
	p.verify(func() {
		// Jobs over one input set must commit identical bytes, so the set's
		// first output is checked against a direct count and the others
		// against that output's checksum.
		firstSum := make([]uint64, csSets)
		checked := make([]bool, csSets)
		for i, spec := range specs {
			name := spec.Name
			switch res := results[i]; {
			case submitErrs[i] != nil:
				p.op(name, submitErrs[i])
			case res == nil:
				p.op(name, fmt.Errorf("did not finish within the horizon"))
			case res.Err != nil:
				p.op(name, res.Err)
			default:
				m := i % csSets
				sum, err := outputSum(env.DFS, spec)
				switch {
				case err != nil:
				case !checked[m]:
					var want map[string]int
					if want, err = referenceCounts(env.DFS, spec.InputFiles); err == nil {
						err = checkWordCount(env.DFS, spec, want)
					}
					firstSum[m], checked[m] = sum, true
				case sum != firstSum[m]:
					err = fmt.Errorf("output %016x differs from %016x of the same input set", sum, firstSum[m])
				}
				p.op(name, err)
				p.job(res.Mode, latency[i])
				jobs = append(jobs, jobRun{spec: spec, res: res})
				fmt.Fprintf(p.digest, "%d=%016x;", i, sum)
			}
		}
	})
	if p.traced {
		l := p.ledger
		l.set("core.queue_wait_mean_vs", mean(obs.waits))
		l.set("core.queue_wait_p99_vs", percentile(obs.waits, 0.99))
		maxBacklog := 0
		for _, b := range backlog {
			maxBacklog = max(maxBacklog, b)
		}
		l.set("core.backlog_max", float64(maxBacklog))
		l.set("core.backlog_at_last_arrival", float64(backlog[csJobs-1]))
		l.set("core.arrival_span_vs", (arrivals[csJobs-1] - arrivals[0]).Seconds())
		if env.Flight != nil {
			l.set("flight.samples", float64(env.Flight.Samples()))
		}
		if !p.flight {
			l.account(p, env, jobs)
		}
	}
}

const (
	qrSalesRows   = 200_000
	qrReturnsRows = qrSalesRows / 2
	qrCells       = qrSalesRows / 8
	qrPool        = 6
)

// qrPlan is one query of the stream: a join of two filtered group-bys,
// ordered by the summed amount. Thresholds differ per query so the three
// result tables differ; grouping is on a high-cardinality key so the
// intermediates are real data. The shape is bench's dagquery plan.
type qrPlan struct {
	minAmount, minRefund int
	desc                 bool
}

func (q qrPlan) plan() *query.Plan {
	sales := query.Scan("sales").
		Filter(query.Where("amount", query.OpGt, strconv.Itoa(q.minAmount))).
		GroupBy([]string{"cell"}, query.Sum("amount"), query.Count())
	returns := query.Scan("returns").
		Filter(query.Where("refund", query.OpGt, strconv.Itoa(q.minRefund))).
		GroupBy([]string{"cell"}, query.Sum("refund"))
	return sales.Join(returns, "cell", "cell").OrderBy("sum(amount)", q.desc)
}

// qrStream is three distinct queries, the same three again, then a variant
// of the first that shares everything but the final sort.
func qrStream() []qrPlan {
	var qs []qrPlan
	for round := 0; round < 2; round++ {
		for i := 0; i < 3; i++ {
			qs = append(qs, qrPlan{100 + 60*i, 20 + 10*i, true})
		}
	}
	return append(qs, qrPlan{100, 20, false})
}

// warehouse holds the generated rows, for the reference evaluation.
type warehouse struct {
	sales, returns []query.Row
}

func genWarehouse(seed int64) *warehouse {
	rng := rand.New(rand.NewSource(seed))
	w := &warehouse{sales: make([]query.Row, qrSalesRows), returns: make([]query.Row, qrReturnsRows)}
	for i := range w.sales {
		w.sales[i] = query.Row{strconv.Itoa(i), fmt.Sprintf("c%05d", rng.Intn(qrCells)), strconv.Itoa(rng.Intn(1000))}
	}
	for i := range w.returns {
		w.returns[i] = query.Row{strconv.Itoa(i), fmt.Sprintf("c%05d", rng.Intn(qrCells)), strconv.Itoa(rng.Intn(200))}
	}
	return w
}

// check evaluates q directly over the generated rows and compares: the
// same cells, the same three aggregates per cell, in the requested order.
func (w *warehouse) check(q qrPlan, res *query.Result) error {
	type agg struct{ amount, count, refund int }
	sales := map[string]*agg{}
	for _, r := range w.sales {
		if a, _ := strconv.Atoi(r[2]); a > q.minAmount {
			g := sales[r[1]]
			if g == nil {
				g = &agg{}
				sales[r[1]] = g
			}
			g.amount += a
			g.count++
		}
	}
	want := map[string]*agg{}
	for _, r := range w.returns {
		if a, _ := strconv.Atoi(r[2]); a > q.minRefund {
			if g := sales[r[1]]; g != nil {
				g.refund += a
				want[r[1]] = g
			}
		}
	}
	col := func(name string) (int, error) { return res.Table.Schema.Index(name) }
	cell, err := col("cell")
	if err != nil {
		return err
	}
	amount, err := col("sum(amount)")
	if err != nil {
		return err
	}
	count, err := col("count(*)")
	if err != nil {
		return err
	}
	refund, err := col("sum(refund)")
	if err != nil {
		return err
	}
	if len(res.Rows) != len(want) {
		return fmt.Errorf("query returned %d rows, want %d", len(res.Rows), len(want))
	}
	prev := 0
	for i, r := range res.Rows {
		g := want[r[cell]]
		if g == nil {
			return fmt.Errorf("row %d: unexpected cell %q", i, r[cell])
		}
		a, _ := strconv.Atoi(r[amount])
		c, _ := strconv.Atoi(r[count])
		f, _ := strconv.Atoi(r[refund])
		if a != g.amount || c != g.count || f != g.refund {
			return fmt.Errorf("row %d (%s): got %d/%d/%d, want %d/%d/%d", i, r[cell], a, c, f, g.amount, g.count, g.refund)
		}
		if i > 0 && (q.desc && a > prev || !q.desc && a < prev) {
			return fmt.Errorf("row %d out of order: %d after %d", i, a, prev)
		}
		prev = a
	}
	return nil
}

// canonRows renders rows order-independently, for comparing a repeat with
// its cold run.
func canonRows(rows []query.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

func runQueryRepeat(p *pass) {
	const what = "query_repeat"
	setup := bench.A3x4()
	var env *bench.Env
	var fw *core.Framework
	var srv *core.JobServer
	var cat *query.Catalog
	var wh *warehouse
	var err error
	p.setupPhase(func() {
		p.span("bench.newenv", func() { env, err = bench.NewEnv(setup, frameworkVariant()) })
		if err != nil {
			return
		}
		// bench.NewEnv attaches a process-wide MapCache keyed by JobKey, and
		// every group-by stage of every query has the JobKey "query-groupby":
		// with it attached, queries 1 and 2 are served query 0's map output
		// over the same table files and return its rows. Detach it, which is
		// also what cmd/mrapid runs queries with.
		env.RT.MapCache = nil
		if p.traced {
			env.EnableObservability(1 << 16)
		}
		p.span("core.ampool_start", func() {
			fw, srv, err = startFramework(env, qrPool, core.JobServerConfig{Policy: core.PolicyWeightedFair})
		})
		if err != nil {
			return
		}
		// env.Reg is nil in an untraced pass; the cache then counts internally.
		fw.Memo = memo.New(env.Reg, env.Cluster.Workers(), memo.Config{
			MemBytes: setup.Params.MemoMemBytes, DiskBytes: setup.Params.MemoDiskBytes,
		})
		p.span("workloads.generate", func() { wh = genWarehouse(p.seed) })
		p.span("query.create", func() {
			cat = query.NewCatalog(env.DFS, env.Cluster)
			if _, err = cat.Create("sales", query.Schema{"id", "cell", "amount"}, wh.sales, 4); err != nil {
				return
			}
			_, err = cat.Create("returns", query.Schema{"rid", "cell", "refund"}, wh.returns, 3)
		})
	})
	if err != nil {
		p.op(what, err)
		return
	}
	defer env.Close()
	dr, err := query.NewDAGRunner(fw, srv, cat)
	if err != nil {
		p.op(what, err)
		return
	}
	dr.Mode = query.ViaDPlus

	stream := qrStream()
	results := make([]*query.Result, len(stream))
	errs := make([]error, len(stream))
	var lastDone sim.Time
	start := env.Eng.Now()
	// Sequential submission: each query sees its predecessors' committed
	// outputs, which is what makes the second half a repeat.
	var launch func(i int)
	launch = func(i int) {
		if i == len(stream) {
			env.RM.Stop()
			return
		}
		dr.Run(stream[i].plan(), func(res *query.Result, err error) {
			results[i], errs[i] = res, err
			lastDone = env.Eng.Now()
			launch(i + 1)
		})
	}
	env.Eng.After(0, func() { launch(0) })
	p.simRun(func() { env.Eng.RunUntil(horizon) })

	p.makespan += lastDone.Sub(start).Seconds()
	p.slot += srv.SlotSeconds
	p.verify(func() {
		cold := map[qrPlan]string{}
		for i, q := range stream {
			name := fmt.Sprintf("query-%d", i)
			res := results[i]
			if res == nil {
				err := errs[i]
				if err == nil {
					err = fmt.Errorf("did not finish within the horizon")
				}
				p.op(name, err)
				continue
			}
			err := wh.check(q, res)
			canon := canonRows(res.Rows)
			// A repeat, and the variant that differs only in sort order,
			// must return exactly the rows of the cold run.
			key := q
			key.desc = true
			if first, seen := cold[key]; !seen {
				cold[key] = canon
			} else if err == nil && canon != first {
				err = fmt.Errorf("rows differ from the cold run of the same plan")
			}
			p.op(name, err)
			p.job("", res.Elapsed)
			h := fnv.New64a()
			h.Write([]byte(canon))
			fmt.Fprintf(p.digest, "%d=%016x;", i, h.Sum64())
		}
	})
	if p.traced {
		p.ledger.accountQueries(p, env, cat, dr.Opts, stream, results)
	}
}
