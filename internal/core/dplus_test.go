package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mrapid/internal/costmodel"
	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

// newRuntime builds a full simulated cluster runtime for core tests.
func newRuntime(t testing.TB, instance topology.InstanceType, workers int, sched yarn.Scheduler) *mapreduce.Runtime {
	t.Helper()
	eng := sim.NewEngine()
	cluster, err := topology.NewCluster(eng, topology.Spec{Instance: instance, Workers: workers, Racks: 2})
	if err != nil {
		t.Fatal(err)
	}
	params := costmodel.Default()
	dfs := hdfs.New(eng, cluster, params.HDFSBlockBytes, params.Replication, 42)
	rm := yarn.NewRM(eng, cluster, params, sched)
	rm.Start()
	rt := mapreduce.NewRuntime(eng, cluster, dfs, rm, params)
	t.Cleanup(rt.Close)
	checkAtTeardown(t, rt)
	return rt
}

// checkAtTeardown is conservation at teardown: whatever the test did to the
// cluster, the RM's incremental resource view must still equal a
// recomputation, and every byte budget the sum of its resident copies.
func checkAtTeardown(t testing.TB, rt *mapreduce.Runtime) {
	t.Cleanup(func() {
		if err := rt.RM.CheckView(); err != nil {
			t.Error(err)
		}
		if err := rt.CheckResidency(); err != nil {
			t.Error(err)
		}
	})
}

func oneContainer() topology.Resource { return topology.Resource{VCores: 1, MemoryMB: 1024} }

func TestDPlusGrantsInSameHeartbeat(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	app := rt.RM.NewApp("j")
	ask := &yarn.Ask{App: app, Resource: oneContainer(), Tag: "map-0"}
	var got []*yarn.Container
	rt.Eng.After(0, func() {
		rt.RM.Allocate(app, []*yarn.Ask{ask}, func(cs []*yarn.Container) { got = cs })
	})
	rt.Eng.RunUntil(sim.Time(2 * time.Second))
	if len(got) != 1 {
		t.Fatalf("same-heartbeat response had %d containers, want 1", len(got))
	}
	// The response arrived after just the RPC round trip, far under one
	// heartbeat period.
	if rt.Eng.Now() > sim.Time(2*time.Second) {
		t.Fatalf("response too slow")
	}
}

func TestDPlusSpreadsAcrossNodes(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	app := rt.RM.NewApp("j")
	var asks []*yarn.Ask
	for i := 0; i < 4; i++ {
		asks = append(asks, &yarn.Ask{App: app, Resource: oneContainer(), Tag: "map"})
	}
	var got []*yarn.Container
	rt.Eng.After(0, func() {
		rt.RM.Allocate(app, asks, func(cs []*yarn.Container) { got = cs })
	})
	rt.Eng.RunUntil(sim.Time(2 * time.Second))
	if len(got) != 4 {
		t.Fatalf("granted %d containers", len(got))
	}
	nodes := map[string]int{}
	for _, c := range got {
		nodes[c.Node.Name]++
	}
	if len(nodes) != 4 {
		t.Fatalf("containers landed on %d nodes (%v), want 4 (round-robin spread)", len(nodes), nodes)
	}
}

func TestDPlusHonorsNodeLocality(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	app := rt.RM.NewApp("j")
	pref := rt.Cluster.Workers()[2]
	ask := &yarn.Ask{
		App: app, Resource: oneContainer(),
		PreferredNodes: []*topology.Node{pref},
		PreferredRacks: []string{pref.Rack},
		Tag:            "map-0",
	}
	var got []*yarn.Container
	rt.Eng.After(0, func() {
		rt.RM.Allocate(app, []*yarn.Ask{ask}, func(cs []*yarn.Container) { got = cs })
	})
	rt.Eng.RunUntil(sim.Time(2 * time.Second))
	if len(got) != 1 || got[0].Node != pref {
		t.Fatalf("locality-aware D+ placed on %v, want %v", got[0].Node, pref)
	}
	if rt.RM.Metrics.ByLocality[yarn.NodeLocal] != 1 {
		t.Fatalf("locality metrics = %v", rt.RM.Metrics.ByLocality)
	}
}

func TestDPlusLocalityTiersPreferRackOverAny(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	app := rt.RM.NewApp("j")
	pref := rt.Cluster.Workers()[0] // rack-0, as is worker 2
	// Fill the preferred node completely so NodeLocal is impossible.
	nt := rt.RM.TrackerFor(pref)
	rt.RM.Grant(&yarn.Ask{App: rt.RM.NewApp("filler"), Resource: nt.Avail, Tag: "fill"}, nt)
	ask := &yarn.Ask{
		App: app, Resource: oneContainer(),
		PreferredNodes: []*topology.Node{pref},
		PreferredRacks: []string{pref.Rack},
		Tag:            "map-0",
	}
	var got []*yarn.Container
	rt.Eng.After(0, func() {
		rt.RM.Allocate(app, []*yarn.Ask{ask}, func(cs []*yarn.Container) { got = cs })
	})
	rt.Eng.RunUntil(sim.Time(2 * time.Second))
	if len(got) != 1 {
		t.Fatalf("granted %d", len(got))
	}
	if got[0].Node.Rack != pref.Rack {
		t.Fatalf("placed in rack %s, want rack-local %s", got[0].Node.Rack, pref.Rack)
	}
	if got[0].Node == pref {
		t.Fatal("placed on a full node")
	}
}

func TestDPlusWithoutSameHeartbeatWaitsForNodeUpdate(t *testing.T) {
	t.Parallel()
	opts := FullDPlus()
	opts.SameHeartbeat = false
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(opts))
	app := rt.RM.NewApp("j")
	ask := &yarn.Ask{App: app, Resource: oneContainer(), Tag: "map-0"}
	var first []*yarn.Container
	responded := false
	rt.Eng.After(0, func() {
		rt.RM.Allocate(app, []*yarn.Ask{ask}, func(cs []*yarn.Container) {
			first = cs
			responded = true
		})
	})
	rt.Eng.RunUntil(sim.Time(500 * time.Millisecond))
	if !responded {
		t.Fatal("no response")
	}
	if len(first) != 0 {
		t.Fatal("ablated scheduler granted in the same heartbeat")
	}
	// After a node heartbeat plus the next AM heartbeat it arrives.
	var second []*yarn.Container
	rt.Eng.After(0, func() {
		rt.RM.Allocate(app, nil, func(cs []*yarn.Container) { second = cs })
	})
	rt.Eng.RunUntil(sim.Time(3 * time.Second))
	if len(second) != 1 {
		t.Fatalf("delayed grant = %d containers", len(second))
	}
}

func TestDPlusWithoutBalancedSpreadPacksGreedily(t *testing.T) {
	t.Parallel()
	opts := FullDPlus()
	opts.BalancedSpread = false
	opts.LocalityAware = false
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(opts))
	app := rt.RM.NewApp("j")
	var asks []*yarn.Ask
	for i := 0; i < 4; i++ {
		asks = append(asks, &yarn.Ask{App: app, Resource: oneContainer(), Tag: "map"})
	}
	var got []*yarn.Container
	rt.Eng.After(0, func() {
		rt.RM.Allocate(app, asks, func(cs []*yarn.Container) { got = cs })
	})
	rt.Eng.RunUntil(sim.Time(2 * time.Second))
	if len(got) != 4 {
		t.Fatalf("granted %d", len(got))
	}
	nodes := map[string]bool{}
	for _, c := range got {
		nodes[c.Node.Name] = true
	}
	if len(nodes) != 1 {
		t.Fatalf("greedy ablation spread over %d nodes, want 1", len(nodes))
	}
}

func TestDPlusQueueDrainsOnNodeUpdateWhenFull(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 1, NewDPlusScheduler(FullDPlus()))
	app := rt.RM.NewApp("j")
	// 9 asks on a 7-slot node: 7 granted immediately, 2 queued.
	var asks []*yarn.Ask
	for i := 0; i < 9; i++ {
		asks = append(asks, &yarn.Ask{App: app, Resource: oneContainer(), Tag: "map"})
	}
	var immediate, later []*yarn.Container
	rt.Eng.After(0, func() {
		rt.RM.Allocate(app, asks, func(cs []*yarn.Container) {
			immediate = cs
			// Free two containers; they are reported at the next NM
			// heartbeat, after which the queue drains.
			for _, c := range cs[:2] {
				rt.RM.ReleaseContainer(c)
			}
		})
	})
	rt.Eng.RunUntil(sim.Time(2 * time.Second))
	if len(immediate) != 7 {
		t.Fatalf("immediate grants = %d, want 7 (node memory capacity)", len(immediate))
	}
	rt.Eng.After(0, func() {
		rt.RM.Allocate(app, nil, func(cs []*yarn.Container) { later = cs })
	})
	rt.Eng.RunUntil(sim.Time(5 * time.Second))
	if len(later) != 2 {
		t.Fatalf("queued grants after release = %d, want 2", len(later))
	}
}

// Property: under random ask streams the D+ scheduler never overcommits any
// node and every grant respects the tracker accounting.
func TestQuickDPlusNoOvercommit(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		cluster, _ := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: 1 + rng.Intn(6), Racks: 2})
		params := costmodel.Default()
		rm := yarn.NewRM(eng, cluster, params, NewDPlusScheduler(FullDPlus()))
		rm.Start()
		app := rm.NewApp("q")
		var asks []*yarn.Ask
		for i := 0; i < 5+rng.Intn(40); i++ {
			asks = append(asks, &yarn.Ask{
				App:      app,
				Resource: topology.Resource{VCores: 1 + rng.Intn(2), MemoryMB: 512 * (1 + rng.Intn(4))},
				Tag:      "m",
			})
		}
		eng.After(0, func() { rm.Allocate(app, asks, func([]*yarn.Container) {}) })
		eng.RunUntil(sim.Time(20 * time.Second))
		for _, nt := range rm.Trackers() {
			u := nt.Used()
			if u.VCores < 0 || u.MemoryMB < 0 || !u.FitsIn(nt.Cap) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDPlusSchedulerName(t *testing.T) {
	t.Parallel()
	s := NewDPlusScheduler(FullDPlus())
	if s.Name() != "mrapid-dplus" {
		t.Fatalf("Name = %q", s.Name())
	}
	if !s.Options().SameHeartbeat || !s.Options().LocalityAware || !s.Options().BalancedSpread {
		t.Fatal("FullDPlus toggles wrong")
	}
}

func TestEstimatorEquations(t *testing.T) {
	t.Parallel()
	in := EstimatorInputs{
		TM:  2 * time.Second,
		SI:  10 << 20,
		SO:  8 << 20,
		NM:  8,
		NC:  4,
		NUM: 4,
		TL:  2500 * time.Millisecond,
		DI:  50e6,
		DO:  60e6,
		BI:  50e6,
	}
	// Eq. 2: t_u = t^m · ceil(n^m/n_u^m) = 2s · 2 = 4s.
	if got := EstimateUPlus(in); got != 4*time.Second {
		t.Errorf("EstimateUPlus = %v, want 4s", got)
	}
	// Eq. 3: t_d = (t^l + t^m + s^o/d^i)·2 + (s^o·n^c)/b^i.
	spill := time.Duration(float64(in.SO) / in.DI * float64(time.Second))
	shuffle := time.Duration(float64(in.SO*4) / in.BI * float64(time.Second))
	want := (in.TL+in.TM+spill)*2 + shuffle
	if got := EstimateDPlus(in); got != want {
		t.Errorf("EstimateDPlus = %v, want %v", got, want)
	}
}

func TestDecide(t *testing.T) {
	t.Parallel()
	base := EstimatorInputs{
		TM: time.Second, SO: 1 << 20, NM: 4, NC: 16, NUM: 4,
		TL: 2500 * time.Millisecond, DI: 50e6, DO: 60e6, BI: 50e6,
	}
	// 4 maps fit one U+ wave: t_u = 1s. D+ pays launches: t_d > 3.5s.
	if got := Decide(base); got != ModeUPlus {
		t.Errorf("Decide = %v, want uplus for tiny jobs", got)
	}
	// Many heavy maps with a big cluster: D+ wins.
	heavy := base
	heavy.TM = 10 * time.Second
	heavy.NM = 64
	heavy.NUM = 4
	heavy.NC = 64
	if got := Decide(heavy); got != ModeDPlus {
		t.Errorf("Decide = %v, want dplus for wide jobs", got)
	}
}

func TestWavesAndIOTime(t *testing.T) {
	t.Parallel()
	if waves(8, 4) != 2 || waves(9, 4) != 3 || waves(1, 4) != 1 || waves(5, 0) != 5 {
		t.Fatal("waves arithmetic wrong")
	}
	if ioTime(100, 100) != time.Second || ioTime(0, 100) != 0 || ioTime(100, 0) != 0 {
		t.Fatal("ioTime arithmetic wrong")
	}
}

func TestInputsFromProfile(t *testing.T) {
	t.Parallel()
	p := costmodel.Default()
	s := profilerSummary()
	in := InputsFromProfile(s, 8, 16, 4, topology.A3, p)
	if in.TM != s.AvgMapCPU || in.SI != s.AvgIn || in.SO != s.AvgOut {
		t.Fatal("measured fields not copied")
	}
	if in.TL != p.ContainerStart() || in.DI != topology.A3.DiskWriteBps {
		t.Fatal("structural fields wrong")
	}
	if in.NM != 8 || in.NC != 16 || in.NUM != 4 {
		t.Fatal("counts wrong")
	}
}
