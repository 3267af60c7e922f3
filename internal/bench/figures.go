package bench

import (
	"fmt"

	"mrapid/internal/core"
	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
	"mrapid/internal/topology"
	"mrapid/internal/workloads"
	"mrapid/internal/yarn"
)

// Options control a reproduction run.
type Options struct {
	// Scale multiplies every input size (file bytes, TeraSort rows, PI
	// samples) and the U+ cache budget. 1.0 reproduces the paper's sizes;
	// tests use smaller scales for speed. Scale preserves all I/O-vs-I/O
	// shape relationships; fixed overheads (launches, heartbeats) do not
	// shrink, so small scales exaggerate MRapid's relative advantage — the
	// recorded EXPERIMENTS.md numbers use Scale = 1.
	Scale float64
	// Seed drives input synthesis and replica placement.
	Seed int64
	// NodeFaults scripts machine crashes into every simulation of the run
	// (crash times measured from cluster-ready). The fault-tolerance
	// machinery re-executes lost work, so figures still complete — slower,
	// which is the point of running them this way.
	NodeFaults []mapreduce.NodeFault
	// ShuffleService attaches the per-node consolidating shuffle service
	// (internal/shuffle) to every simulation of the run, shipping map output
	// through ShuffleCodec ("none" or "lz") on the wire. Off by default —
	// the per-map shuffle is the paper's baseline. The dedicated "shuffle"
	// experiment ignores these and sweeps its own configurations.
	ShuffleService bool
	ShuffleCodec   string

	// MemoCache attaches the cross-job memoization cache (internal/memo) to
	// every framework-backed simulation of the run: repeat submissions of an
	// identical job over unchanged inputs are served from the cache without
	// launching an AM or a container. Off by default — first-sight workloads
	// are the paper's baseline. Outputs are byte-identical with it on or off.
	MemoCache bool

	// FlightRecorder turns on the flight recorder (internal/flight) for
	// workload runs: virtual-clock time-series and per-tenant SLO burn
	// rates. Sampling is read-only on the virtual clock, so results are
	// byte-identical with it on or off.
	FlightRecorder bool
	// SeriesOut/DashOut, when non-empty, make the recording experiments
	// write the Prometheus series dump and the HTML dashboard to these
	// paths.
	SeriesOut string
	DashOut   string
}

// Apply is the one step from a run description to a simulation's setup: it
// copies every run-wide knob onto a base cluster — Scale (the U+ cache
// budget shrinks with the inputs), node faults, and the feature toggles.
// The DFS placement seed stays the base setup's own.
func (o Options) Apply(setup ClusterSetup) ClusterSetup {
	o = o.normalized()
	setup.Params.UberCacheBytes = int64(float64(setup.Params.UberCacheBytes) * o.Scale)
	setup.NodeFaults = o.NodeFaults
	if o.ShuffleService {
		setup.Params.ShuffleService = true
		setup.Params.ShuffleCodec = o.ShuffleCodec
	}
	if o.MemoCache {
		setup.Params.MemoCache = true
	}
	return setup
}

func (o Options) normalized() Options {
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) bytes(n float64) int64 {
	return int64(n * o.Scale)
}

// Point is one x-position of a figure with one measured value per column.
type Point struct {
	X       float64
	Label   string
	Seconds map[string]float64
}

// Figure is a reproduced table/figure: completion times per column over a
// sweep.
type Figure struct {
	ID      string
	Title   string
	XLabel  string
	Columns []string
	Points  []Point
	Notes   []string
}

// Get returns the measured seconds for a column at a point index.
func (f *Figure) Get(i int, column string) float64 {
	return f.Points[i].Seconds[column]
}

// Improvement returns the percentage improvement of column b over column a
// at point i: (a-b)/a × 100.
func (f *Figure) Improvement(i int, a, b string) float64 {
	base := f.Get(i, a)
	if base == 0 {
		return 0
	}
	return (base - f.Get(i, b)) / base * 100
}

const mb = float64(1 << 20)

// StageWordCount generates a WordCount input on the env's DFS and returns the
// job over it.
func StageWordCount(env *Env, files int, fileBytes, seed int64) (*mapreduce.JobSpec, error) {
	names, err := workloads.GenerateWordCountInput(env.DFS, env.Cluster, "/in/wc", workloads.WordCountConfig{
		Files: files, FileBytes: fileBytes, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return workloads.WordCountSpec(fmt.Sprintf("wordcount-%dx%dMB", files, fileBytes/(1<<20)), names, "/out/wc", false), nil
}

// StageTeraSort generates a TeraSort input and returns the single-reduce sort
// over it.
func StageTeraSort(env *Env, rows int64, files int, seed int64) (*mapreduce.JobSpec, error) {
	names, err := workloads.TeraGen(env.DFS, env.Cluster, "/in/ts", workloads.TeraGenConfig{
		Rows: rows, Files: files, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return workloads.TeraSortSpec(env.DFS, fmt.Sprintf("terasort-%dk", rows/1000), names, "/out/ts", 1)
}

// StagePi writes the PI sampler's map inputs and returns the job over them.
func StagePi(env *Env, maps int, samples int64) (*mapreduce.JobSpec, error) {
	names, err := workloads.GeneratePiInput(env.DFS, env.Cluster, "/in/pi", workloads.PiConfig{
		Maps: maps, Samples: samples / int64(maps),
	})
	if err != nil {
		return nil, err
	}
	return workloads.PiSpec(env.DFS, fmt.Sprintf("pi-%dm", samples/1_000_000), names, "/out/pi"), nil
}

// runJob stages one job on a fresh simulation of setup, runs it under the
// variant, and returns its result with the file system holding its output.
func runJob(setup ClusterSetup, v Variant, o Options, stage func(*Env) (*mapreduce.JobSpec, error)) (*mapreduce.Result, *hdfs.DFS, error) {
	env, err := NewEnv(o.Apply(setup), v)
	if err != nil {
		return nil, nil, err
	}
	spec, err := stage(env)
	if err != nil {
		return nil, nil, err
	}
	res, err := env.Run(v, spec)
	return res, env.DFS, err
}

// runWordCount is runJob over one WordCount configuration.
func runWordCount(setup ClusterSetup, v Variant, files int, fileBytes int64, o Options) (float64, error) {
	res, _, err := runJob(setup, v, o, func(env *Env) (*mapreduce.JobSpec, error) {
		return StageWordCount(env, files, fileBytes, o.Seed)
	})
	return res.Elapsed(), err
}

// sweep runs every variant at every x-position through run().
func sweep(xs []float64, labels []string, variants []Variant,
	run func(x float64, v Variant) (float64, error)) ([]Point, error) {
	points := make([]Point, 0, len(xs))
	for i, x := range xs {
		p := Point{X: x, Label: labels[i], Seconds: make(map[string]float64, len(variants))}
		for _, v := range variants {
			secs, err := run(x, v)
			if err != nil {
				return nil, fmt.Errorf("%s at %s: %w", v.Name, labels[i], err)
			}
			p.Seconds[v.Name] = secs
		}
		points = append(points, p)
	}
	return points, nil
}

func columnNames(vs []Variant) []string {
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.Name
	}
	return names
}

// Fig7 — WordCount on the A3 cluster, file size fixed at 10 MB, file count
// varying 1..16.
func Fig7(o Options) (*Figure, error) {
	o = o.normalized()
	xs := []float64{1, 2, 4, 8, 16}
	labels := []string{"1", "2", "4", "8", "16"}
	vs := StandardVariants()
	points, err := sweep(xs, labels, vs, func(x float64, v Variant) (float64, error) {
		return runWordCount(A3x4(), v, int(x), o.bytes(10*mb), o)
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID: "fig7", Title: "WordCount, A3×4, 10 MB files, varying file count",
		XLabel: "files", Columns: columnNames(vs), Points: points,
	}, nil
}

// Fig8 — WordCount with 4 files, file size varying 5..40 MB.
func Fig8(o Options) (*Figure, error) {
	o = o.normalized()
	xs := []float64{5, 10, 20, 40}
	labels := []string{"5MB", "10MB", "20MB", "40MB"}
	vs := StandardVariants()
	points, err := sweep(xs, labels, vs, func(x float64, v Variant) (float64, error) {
		return runWordCount(A3x4(), v, 4, o.bytes(x*mb), o)
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID: "fig8", Title: "WordCount, A3×4, 4 files, varying file size",
		XLabel: "file size", Columns: columnNames(vs), Points: points,
	}, nil
}

// Fig9 — WordCount with the total input fixed at 60 MB, split over 2..4
// files.
func Fig9(o Options) (*Figure, error) {
	o = o.normalized()
	xs := []float64{2, 3, 4}
	labels := []string{"2x30MB", "3x20MB", "4x15MB"}
	vs := StandardVariants()
	points, err := sweep(xs, labels, vs, func(x float64, v Variant) (float64, error) {
		return runWordCount(A3x4(), v, int(x), o.bytes(60*mb/x), o)
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID: "fig9", Title: "WordCount, A3×4, total input 60 MB, varying split",
		XLabel: "files", Columns: columnNames(vs), Points: points,
	}, nil
}

// Fig10 — TeraSort with 4 input blocks, rows varying 100k..1600k.
func Fig10(o Options) (*Figure, error) {
	o = o.normalized()
	xs := []float64{100, 200, 400, 800, 1600}
	labels := []string{"100k", "200k", "400k", "800k", "1600k"}
	vs := StandardVariants()
	points, err := sweep(xs, labels, vs, func(x float64, v Variant) (float64, error) {
		rows := int64(x * 1000 * o.Scale)
		if rows < 4 {
			rows = 4
		}
		res, dfs, err := runJob(A3x4(), v, o, func(env *Env) (*mapreduce.JobSpec, error) {
			return StageTeraSort(env, rows, 4, o.Seed)
		})
		if err != nil {
			return 0, err
		}
		if err := workloads.VerifyTeraSortOutput(dfs, "/out/ts", 1, rows); err != nil {
			return 0, fmt.Errorf("bench: terasort output invalid: %w", err)
		}
		return res.Elapsed(), nil
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID: "fig10", Title: "TeraSort, A3×4, 4 blocks, varying row count",
		XLabel: "rows (k)", Columns: columnNames(vs), Points: points,
	}, nil
}

// Fig11 — PI with 4 maps, total samples varying 100m..1600m.
func Fig11(o Options) (*Figure, error) {
	o = o.normalized()
	xs := []float64{100, 200, 400, 800, 1600}
	labels := []string{"100m", "200m", "400m", "800m", "1600m"}
	vs := StandardVariants()
	points, err := sweep(xs, labels, vs, func(x float64, v Variant) (float64, error) {
		samples := int64(x * 1e6 * o.Scale)
		if samples < 4 {
			samples = 4
		}
		res, _, err := runJob(A3x4(), v, o, func(env *Env) (*mapreduce.JobSpec, error) {
			return StagePi(env, 4, samples)
		})
		return res.Elapsed(), err
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID: "fig11", Title: "PI, A3×4, 4 maps, varying sample count",
		XLabel: "samples (m)", Columns: columnNames(vs), Points: points,
	}, nil
}

// Fig12 — WordCount (4×10 MB) on the A2 cluster with 1 vs 2 containers per
// core, achieved as the paper's era did through container memory sizing.
func Fig12(o Options) (*Figure, error) {
	o = o.normalized()
	vs := StandardVariants()
	mkSetup := func(cpc int) ClusterSetup {
		setup := A2x9()
		it := setup.Instance
		switch cpc {
		case 1:
			it.ContainerMB = 1792 // 2 containers on 3.5 GB = 1 per core
			it.VCores = 2
		case 2:
			it.ContainerMB = 896 // 4 containers = 2 per core
			it.VCores = 4
		}
		setup.Instance = it
		return setup
	}
	xs := []float64{1, 2}
	labels := []string{"1/core", "2/core"}
	points, err := sweep(xs, labels, vs, func(x float64, v Variant) (float64, error) {
		return runWordCount(mkSetup(int(x)), v, 4, o.bytes(10*mb), o)
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID: "fig12", Title: "WordCount, A2×9, 4×10 MB, varying containers per core",
		XLabel: "containers/core", Columns: columnNames(vs), Points: points,
	}, nil
}

// Fig13 — WordCount across two equal-cost clusters: 10-node A2 (9 workers)
// vs 5-node A3 (4 workers), varying file count. Columns are mode@cluster.
func Fig13(o Options) (*Figure, error) {
	o = o.normalized()
	xs := []float64{1, 2, 4, 8, 16}
	labels := []string{"1", "2", "4", "8", "16"}
	type combo struct {
		name  string
		setup ClusterSetup
		v     Variant
	}
	var combos []combo
	for _, v := range []Variant{VariantDPlus(), VariantUPlus()} {
		v := v
		a2, a3 := v, v
		a2.Name = v.Name + "@A2x10"
		a3.Name = v.Name + "@A3x5"
		combos = append(combos,
			combo{a2.Name, A2x9(), a2},
			combo{a3.Name, A3x4(), a3},
		)
	}
	var columns []string
	for _, c := range combos {
		columns = append(columns, c.name)
	}
	points := make([]Point, 0, len(xs))
	for i, x := range xs {
		p := Point{X: x, Label: labels[i], Seconds: map[string]float64{}}
		for _, c := range combos {
			secs, err := runWordCount(c.setup, c.v, int(x), o.bytes(10*mb), o)
			if err != nil {
				return nil, fmt.Errorf("%s at %s: %w", c.name, labels[i], err)
			}
			p.Seconds[c.name] = secs
		}
		points = append(points, p)
	}
	return &Figure{
		ID: "fig13", Title: "WordCount on equal-cost clusters (10×A2 vs 5×A3), 10 MB files",
		XLabel: "files", Columns: columns, Points: points,
		Notes: []string{"clusters cost the same per hour (Table II): 10×$0.18 = 5×$0.36"},
	}, nil
}

// dplusStack is the cumulative optimization stack of Figure 14: each step
// adds one D+ optimization on top of the previous ones.
func dplusStack() []Variant {
	stock := func() yarn.Scheduler { return yarn.NewStockScheduler() }
	spread := func() yarn.Scheduler {
		return core.NewDPlusScheduler(core.DPlusOptions{BalancedSpread: true})
	}
	spreadLocal := func() yarn.Scheduler {
		return core.NewDPlusScheduler(core.DPlusOptions{BalancedSpread: true, LocalityAware: true})
	}
	full := func() yarn.Scheduler { return core.NewDPlusScheduler(core.FullDPlus()) }
	// The submission framework (+ampool) includes the proxy's direct-RPC
	// completion notification — that is how the real framework works — so
	// the later sub-second steps are not quantized by the stock client's
	// 1 s status poll. "+comms" isolates the same-heartbeat scheduler
	// response, the D+ communication reduction of §III-A.
	return []Variant{
		{Name: "hadoop", NewScheduler: stock, Mode: core.ModeHadoop},
		{Name: "+scheduler", NewScheduler: spread, Mode: core.ModeHadoop},
		{Name: "+ampool", NewScheduler: spread, Mode: core.ModeDPlus, UseFramework: true, PoolSize: 3},
		{Name: "+locality", NewScheduler: spreadLocal, Mode: core.ModeDPlus, UseFramework: true, PoolSize: 3},
		{Name: "+comms", NewScheduler: full, Mode: core.ModeDPlus, UseFramework: true, PoolSize: 3},
	}
}

// uplusStack is the cumulative optimization stack of Figure 15.
func uplusStack() []Variant {
	stock := func() yarn.Scheduler { return yarn.NewStockScheduler() }
	parallelOnly := core.UPlusOptions{ThreadsPerCore: 1, MemoryCache: false}
	return []Variant{
		{Name: "uber", NewScheduler: stock, Mode: core.ModeUber},
		{Name: "+parallel", NewScheduler: stock, Mode: core.ModeUPlus, UOpts: parallelOnly},
		{Name: "+ampool", NewScheduler: stock, Mode: core.ModeUPlus, UOpts: parallelOnly, UseFramework: true, PoolSize: 3, NotifyPoll: true},
		{Name: "+memcache", NewScheduler: stock, Mode: core.ModeUPlus, UOpts: core.FullUPlus(), UseFramework: true, PoolSize: 3, NotifyPoll: true},
		{Name: "+comms", NewScheduler: stock, Mode: core.ModeUPlus, UOpts: core.FullUPlus(), UseFramework: true, PoolSize: 3, NotifyPoll: false},
	}
}

// runStack measures a cumulative ablation stack on the Figure 14/15
// workload (WordCount, eight 10 MB files, 5-node cluster) and reports each
// step's marginal contribution to the total improvement.
func runStack(stack []Variant, id, title string, o Options) (*Figure, error) {
	o = o.normalized()
	points := make([]Point, 0, len(stack))
	for i, v := range stack {
		secs, err := runWordCount(A3x4(), v, 8, o.bytes(10*mb), o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.Name, err)
		}
		points = append(points, Point{X: float64(i), Label: v.Name, Seconds: map[string]float64{"elapsed": secs}})
	}
	fig := &Figure{
		ID: id, Title: title,
		XLabel: "optimization stack", Columns: []string{"elapsed"}, Points: points,
	}
	fig.Notes = contributions(points)
	return fig, nil
}

// contributions formats each step's share of the total improvement.
func contributions(points []Point) []string {
	if len(points) < 2 {
		return nil
	}
	base := points[0].Seconds["elapsed"]
	final := points[len(points)-1].Seconds["elapsed"]
	total := base - final
	if total <= 0 {
		return []string{"no net improvement"}
	}
	var notes []string
	prev := base
	for _, p := range points[1:] {
		cur := p.Seconds["elapsed"]
		notes = append(notes, fmt.Sprintf("%s: %.0f%% of total improvement (%.2fs → %.2fs)",
			p.Label, (prev-cur)/total*100, prev, cur))
		prev = cur
	}
	return notes
}

// Fig14 — contribution of each D+ optimization.
func Fig14(o Options) (*Figure, error) {
	return runStack(dplusStack(), "fig14", "D+ optimization contributions (WordCount, 8×10 MB, 5 nodes)", o)
}

// Fig15 — contribution of each U+ optimization.
func Fig15(o Options) (*Figure, error) {
	return runStack(uplusStack(), "fig15", "U+ optimization contributions (WordCount, 8×10 MB, 5 nodes)", o)
}

// TableII renders the instance catalog as a figure-shaped table for uniform
// reporting.
func TableII(Options) (*Figure, error) {
	fig := &Figure{
		ID: "table2", Title: "Microsoft Azure instance types (Table II)",
		XLabel:  "instance",
		Columns: []string{"cores", "memoryGB", "diskGB", "price$/hr"},
	}
	for i, it := range topology.InstanceCatalog {
		fig.Points = append(fig.Points, Point{
			X: float64(i), Label: it.Name,
			Seconds: map[string]float64{
				"cores":     float64(it.Cores),
				"memoryGB":  float64(it.MemoryMB) / 1024,
				"diskGB":    float64(it.DiskGB),
				"price$/hr": it.PricePerHour,
			},
		})
	}
	return fig, nil
}

// Runner regenerates one experiment.
type Runner func(Options) (*Figure, error)

// Registry maps every reproduced table/figure to its runner, in paper
// order.
var Registry = []struct {
	ID    string
	Run   Runner
	Short string
}{
	{"table2", TableII, "Azure instance catalog"},
	{"fig7", Fig7, "WordCount vs file count"},
	{"fig8", Fig8, "WordCount vs file size"},
	{"fig9", Fig9, "WordCount, fixed 60 MB total"},
	{"fig10", Fig10, "TeraSort vs rows"},
	{"fig11", Fig11, "PI vs samples"},
	{"fig12", Fig12, "containers per core"},
	{"fig13", Fig13, "equal-cost cluster shapes"},
	{"fig14", Fig14, "D+ ablation"},
	{"fig15", Fig15, "U+ ablation"},
	{"estimator", EstimatorAccuracy, "Eq. 2/3 estimates vs measured (supplementary)"},
	{"phases", PhaseBreakdown, "phase attribution per mode (observability)"},
	{"throughput", Throughput, "multi-tenant JobServer throughput & fairness"},
	{"shuffle", Shuffle, "shuffle service: consolidated fetches, combine & compression"},
	{"dagquery", DAGQuery, "query DAG scheduler: parallel branches vs sequential chains"},
	{"memo", Memo, "cross-job memoization: digest-keyed result reuse skips execution"},
}

// Lookup finds a registered experiment by ID.
func Lookup(id string) (Runner, bool) {
	for _, r := range Registry {
		if r.ID == id {
			return r.Run, true
		}
	}
	return nil, false
}
