// Package bench regenerates every table and figure of the paper's
// evaluation (Table II, Figures 7–15) on the simulated cluster. Each data
// point runs in a fresh, deterministic simulation; each figure compares the
// four execution modes (stock Hadoop distributed, stock Uber, MRapid D+,
// MRapid U+) or, for the ablation figures, a cumulative stack of individual
// optimizations.
package bench

import (
	"fmt"

	"mrapid/internal/core"
	"mrapid/internal/costmodel"
	"mrapid/internal/flight"
	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
	"mrapid/internal/memo"
	"mrapid/internal/metrics"
	"mrapid/internal/shuffle"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
	"mrapid/internal/yarn"
)

// horizon bounds a single job simulation; any job still unfinished after
// this much virtual time is reported as hung.
const horizon = sim.Time(1 << 42) // ≈ 4400 virtual seconds

// sharedMapCache memoizes pure map-function results across the hundreds of
// simulations a figure sweep builds: the execution modes differ only in
// scheduling and I/O charging, never in what the map function computes over
// the same bytes. Purely a host-CPU saving; simulated results are
// unaffected.
var sharedMapCache = mapreduce.NewMapCache(1 << 30)

// ClusterSetup describes the simulated cluster for one run.
type ClusterSetup struct {
	Instance topology.InstanceType
	Workers  int
	Racks    int
	Params   costmodel.Params
	Seed     int64

	// NodeFaults scripts machine crashes for fault-tolerance runs. Crash
	// times are measured from cluster-ready (after the AM pool is up, just
	// before the first job is submitted).
	NodeFaults []mapreduce.NodeFault
}

// A3x4 is the paper's first testbed: 1 NameNode + 4 A3 DataNodes.
func A3x4() ClusterSetup {
	return ClusterSetup{Instance: topology.A3, Workers: 4, Racks: 2, Params: costmodel.Default(), Seed: 1}
}

// A2x9 is the paper's second testbed: 1 NameNode + 9 A2 DataNodes.
func A2x9() ClusterSetup {
	return ClusterSetup{Instance: topology.A2, Workers: 9, Racks: 2, Params: costmodel.Default(), Seed: 1}
}

// Variant pins down exactly how a job is scheduled and submitted — one
// column of a figure.
type Variant struct {
	Name string

	// NewScheduler builds the RM scheduler (stock or a D+ configuration).
	NewScheduler func() yarn.Scheduler

	// UseFramework routes submission through the MRapid proxy/AM pool.
	UseFramework bool
	PoolSize     int
	// NotifyPoll keeps stock client polling even under the framework (used
	// by the ablation stacks that add "reduced communication" last).
	NotifyPoll bool
	// Server, when set, puts a JobServer with this configuration in front of
	// the framework (Env.Srv). It is built before the pool starts, so its
	// tenant queues exist when the reserved AM containers are charged — they
	// land in the default queue.
	Server *core.JobServerConfig

	// Mode selects the execution engine.
	Mode  core.ModeKind
	UOpts core.UPlusOptions
}

// The four standard variants of Figures 7–13.
func VariantHadoop() Variant {
	return Variant{Name: "hadoop", NewScheduler: func() yarn.Scheduler { return yarn.NewStockScheduler() }, Mode: core.ModeHadoop}
}

func VariantUber() Variant {
	return Variant{Name: "uber", NewScheduler: func() yarn.Scheduler { return yarn.NewStockScheduler() }, Mode: core.ModeUber}
}

func VariantDPlus() Variant {
	return Variant{
		Name:         "dplus",
		NewScheduler: func() yarn.Scheduler { return core.NewDPlusScheduler(core.FullDPlus()) },
		UseFramework: true, PoolSize: 3,
		Mode: core.ModeDPlus,
		// The framework always carries full U+ options so speculative
		// submissions on this environment race a properly configured U+.
		UOpts: core.FullUPlus(),
	}
}

// VariantSpeculative is the D+ environment with the decision maker picking
// the mode: the job key's recorded winner or the D+/U+ race.
func VariantSpeculative() Variant {
	v := VariantDPlus()
	v.Name, v.Mode = "speculative", core.ModeSpeculative
	return v
}

func VariantUPlus() Variant {
	return Variant{
		Name:         "uplus",
		NewScheduler: func() yarn.Scheduler { return core.NewDPlusScheduler(core.FullDPlus()) },
		UseFramework: true, PoolSize: 3,
		Mode: core.ModeUPlus, UOpts: core.FullUPlus(),
	}
}

// StandardVariants returns the four mode columns in display order.
func StandardVariants() []Variant {
	return []Variant{VariantHadoop(), VariantUber(), VariantDPlus(), VariantUPlus()}
}

// Env is one fully wired simulation.
type Env struct {
	Eng     *sim.Engine
	Cluster *topology.Cluster
	DFS     *hdfs.DFS
	RM      *yarn.RM
	RT      *mapreduce.Runtime
	FW      *core.Framework
	Srv     *core.JobServer // nil unless the variant asked for one

	// Params is the validated cost model the env was built with.
	Params costmodel.Params

	// Trace and Reg are set by EnableObservability; nil otherwise.
	Trace *trace.Log
	Reg   *metrics.Registry

	// Flight is set by EnableFlightRecorder; nil otherwise.
	Flight *flight.Recorder
}

// EnableObservability attaches a span tracer and a metrics registry to
// every instrumented component (RM, runtime, HDFS). Call it right after
// NewEnv, before submitting work, so spans form complete trees. The int
// parameter is ignored; it is kept only because the benchmark module
// (benchmark/) passes one.
func (e *Env) EnableObservability(int) (*trace.Log, *metrics.Registry) {
	if e.Trace == nil {
		e.Trace = trace.New(e.Eng, 0)
		e.Reg = metrics.New()
		e.RM.Trace = e.Trace
		e.RM.Reg = e.Reg
		e.RT.Trace = e.Trace
		e.RT.Reg = e.Reg
		e.DFS.Trace = e.Trace
	}
	return e.Trace, e.Reg
}

// NewEnv builds and starts a simulation for one variant, in the one order
// that is right: cluster, DFS, RM, runtime, shuffle service, framework,
// JobServer, pool start, memo cache, node faults. When the variant uses the
// framework, the AM pool is brought up before NewEnv returns (that cost is
// cluster startup, not job time), and node-fault times count from there.
func NewEnv(setup ClusterSetup, v Variant) (*Env, error) {
	eng := sim.NewEngine()
	cluster, err := topology.NewCluster(eng, topology.Spec{Instance: setup.Instance, Workers: setup.Workers, Racks: setup.Racks})
	if err != nil {
		return nil, err
	}
	params := setup.Params
	if err := params.Validate(); err != nil {
		return nil, err
	}
	dfs := hdfs.New(eng, cluster, params.HDFSBlockBytes, params.Replication, setup.Seed)
	rm := yarn.NewRM(eng, cluster, params, v.NewScheduler())
	rm.Start()
	rt := mapreduce.NewRuntime(eng, cluster, dfs, rm, params)
	rt.MapCache = sharedMapCache
	if params.ShuffleService {
		if _, err := shuffle.Attach(rt); err != nil {
			return nil, err
		}
	}
	env := &Env{Eng: eng, Cluster: cluster, DFS: dfs, RM: rm, RT: rt, Params: params}
	if v.UseFramework {
		fw := core.NewFramework(rt, v.PoolSize, v.UOpts)
		fw.NotifyPoll = v.NotifyPoll
		if v.Server != nil {
			if env.Srv, err = core.NewJobServer(fw, *v.Server); err != nil {
				return nil, err
			}
		}
		ready := false
		eng.After(0, func() { fw.Start(func() { ready = true }) })
		eng.RunUntil(sim.Time(1 << 36))
		if !ready {
			return nil, fmt.Errorf("bench: AM pool failed to start")
		}
		env.FW = fw
		// The cross-job memo cache hangs off the framework (the lookup lives
		// in core.Submit); it needs the registry for its hit/miss counters,
		// so turning it on implies observability.
		if params.MemoCache {
			env.EnableObservability(0)
			fw.Memo = memo.New(env.Reg, cluster.Workers(), memo.Config{
				MemBytes:  params.MemoMemBytes,
				DiskBytes: params.MemoDiskBytes,
			})
		}
	}
	if len(setup.NodeFaults) > 0 {
		if err := rt.ScheduleNodeFaults(setup.NodeFaults); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// CheckResidency is the conservation check every experiment ends with, on
// the drained simulation: each byte budget — in-AM caches, the intermediate
// store, the memo tiers — holds exactly its resident copies, and no shuffle
// byte is in flight.
func (e *Env) CheckResidency() error {
	if e.FW != nil {
		return e.FW.CheckResidency()
	}
	return e.RT.CheckResidency()
}

// Close ends the simulation's host work: no task body of its runtime runs
// on a host lane after it returns (see mapreduce.Runtime.Close).
func (e *Env) Close() { e.RT.Close() }

// Run executes one job under the variant and returns the client-observed
// result. The simulation is driven until the job completes; an env can Run
// one job after another.
func (e *Env) Run(v Variant, spec *mapreduce.JobSpec) (*mapreduce.Result, error) {
	var res *mapreduce.Result
	e.Eng.After(0, func() {
		if !e.RM.Started() {
			e.RM.Start() // an earlier Run's completion stopped it
		}
		done := func(r *mapreduce.Result) {
			res = r
			e.RM.Stop()
			// The recorder stops with the first completion so its ticker
			// doesn't keep the event queue alive to the horizon.
			e.Flight.StopIfRunning()
		}
		if e.FW != nil {
			e.FW.Submit(v.Mode, spec, done)
			return
		}
		mode, _, err := core.ModeFor(v.Mode, v.UOpts)
		if err != nil {
			panic(fmt.Sprintf("bench: unknown mode %q", v.Mode))
		}
		mapreduce.Submit(e.RT, spec, mode, done)
	})
	e.Eng.RunUntil(horizon)
	if res == nil {
		return nil, fmt.Errorf("bench: job %q did not finish within the horizon", spec.Name)
	}
	if res.Err != nil {
		return nil, fmt.Errorf("bench: job %q failed: %w", spec.Name, res.Err)
	}
	return res, e.CheckResidency()
}
