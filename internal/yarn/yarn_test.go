package yarn

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mrapid/internal/costmodel"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
)

func testRM(t *testing.T, workers int) (*sim.Engine, *topology.Cluster, *RM) {
	t.Helper()
	eng := sim.NewEngine()
	c, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: workers, Racks: 2})
	if err != nil {
		t.Fatal(err)
	}
	rm := NewRM(eng, c, costmodel.Default(), NewStockScheduler())
	rm.Start()
	return eng, c, rm
}

func oneContainer() topology.Resource { return topology.Resource{VCores: 1, MemoryMB: 1024} }

func TestStockNeedsTwoHeartbeatsAndNodeReport(t *testing.T) {
	eng, _, rm := testRM(t, 4)
	app := rm.NewApp("j")
	ask := &Ask{App: app, Resource: oneContainer(), Tag: "map-0"}

	var first, second []*Container
	var firstAt, secondAt sim.Time
	eng.After(0, func() {
		rm.Allocate(app, []*Ask{ask}, func(cs []*Container) {
			first = cs
			firstAt = eng.Now()
			// Second heartbeat one AM period later, as the AM loop would.
			eng.After(rm.Params.AMHeartbeat, func() {
				rm.Allocate(app, nil, func(cs2 []*Container) {
					second = cs2
					secondAt = eng.Now()
				})
			})
		})
	})
	eng.RunUntil(sim.Time(10 * time.Second))
	if len(first) != 0 {
		t.Fatalf("stock scheduler granted %d containers in the requesting heartbeat", len(first))
	}
	if len(second) != 1 {
		t.Fatalf("second heartbeat delivered %d containers, want 1", len(second))
	}
	if secondAt.Sub(firstAt) < rm.Params.AMHeartbeat {
		t.Fatalf("delivery after %v, want at least one AM heartbeat period", secondAt.Sub(firstAt))
	}
}

func TestStockGreedyPacksFirstReportingNode(t *testing.T) {
	eng, _, rm := testRM(t, 4)
	app := rm.NewApp("j")
	// 4 asks; an A3 node fits 4 one-core containers, so the greedy scheduler
	// should put all four on the first node that heartbeats.
	var asks []*Ask
	for i := 0; i < 4; i++ {
		asks = append(asks, &Ask{App: app, Resource: oneContainer(), Tag: "map"})
	}
	var got []*Container
	eng.After(0, func() {
		rm.Allocate(app, asks, func([]*Container) {
			eng.After(2*rm.Params.AMHeartbeat, func() {
				rm.Allocate(app, nil, func(cs []*Container) { got = cs })
			})
		})
	})
	eng.RunUntil(sim.Time(10 * time.Second))
	if len(got) != 4 {
		t.Fatalf("got %d containers, want 4", len(got))
	}
	node := got[0].Node
	for _, c := range got {
		if c.Node != node {
			t.Fatalf("greedy scheduler spread containers: %s vs %s", c.Node.Name, node.Name)
		}
	}
}

func TestStockIgnoresLocality(t *testing.T) {
	eng, c, rm := testRM(t, 4)
	app := rm.NewApp("j")
	// Prefer the last node in heartbeat order; greedy assigns to the first
	// reporter anyway.
	pref := c.Workers()[3]
	ask := &Ask{App: app, Resource: oneContainer(), PreferredNodes: []*topology.Node{pref}, Tag: "map"}
	var got []*Container
	eng.After(0, func() {
		rm.Allocate(app, []*Ask{ask}, func([]*Container) {
			eng.After(2*rm.Params.AMHeartbeat, func() {
				rm.Allocate(app, nil, func(cs []*Container) { got = cs })
			})
		})
	})
	eng.RunUntil(sim.Time(10 * time.Second))
	if len(got) != 1 {
		t.Fatalf("got %d containers", len(got))
	}
	if got[0].Node == pref {
		t.Skip("first reporter happened to be the preferred node")
	}
	if rm.Metrics.ByLocality[Any] != 1 {
		t.Fatalf("locality metrics = %v, want one ANY", rm.Metrics.ByLocality)
	}
}

func TestReleaseFreesOnNextNodeHeartbeat(t *testing.T) {
	eng, _, rm := testRM(t, 1)
	app := rm.NewApp("j")
	big := topology.Resource{VCores: 7, MemoryMB: 7168} // full A3 node
	ask := &Ask{App: app, Resource: big, Tag: "map"}
	var c1 *Container
	var availAtRelease topology.Resource
	eng.After(0, func() {
		rm.Allocate(app, []*Ask{ask}, func([]*Container) {
			eng.After(2*rm.Params.AMHeartbeat, func() {
				rm.Allocate(app, nil, func(cs []*Container) {
					if len(cs) == 1 {
						c1 = cs[0]
						rm.ReleaseContainer(c1)
						// Release is queued on the NM: the RM's view must
						// not change until the node's next heartbeat.
						availAtRelease = rm.TrackerFor(c1.Node).Avail
					}
				})
			})
		})
	})
	eng.RunUntil(sim.Time(7 * time.Second))
	if c1 == nil {
		t.Fatal("container never granted")
	}
	if availAtRelease.VCores != 0 {
		t.Fatalf("resources freed immediately (%v); stock releases only on NM heartbeat", availAtRelease)
	}
	if nt := rm.TrackerFor(c1.Node); nt.Avail.VCores != 7 {
		t.Fatalf("resources not freed after heartbeat: %v", nt.Avail)
	}
	if rm.Metrics.Releases != 1 {
		t.Fatalf("Releases = %d", rm.Metrics.Releases)
	}
}

func TestSubmitAppLaunchesAM(t *testing.T) {
	eng, _, rm := testRM(t, 4)
	var gotApp *App
	var gotC *Container
	var at sim.Time
	rm.SubmitApp("job", oneContainer(), func(a *App, c *Container) {
		gotApp, gotC = a, c
		at = eng.Now()
	})
	eng.RunUntil(sim.Time(20 * time.Second))
	if gotApp == nil || gotC == nil {
		t.Fatal("AM never launched")
	}
	if gotC.Tag != "am" {
		t.Fatalf("AM container tag = %q", gotC.Tag)
	}
	// Must include at least the container start cost plus a node heartbeat
	// wait.
	min := rm.Params.ContainerStart()
	if at < sim.Time(min) {
		t.Fatalf("AM up at %v, want ≥ %v", at, min)
	}
}

func TestKillAppDropsAsksAndReleasesContainers(t *testing.T) {
	eng, _, rm := testRM(t, 2)
	sched := rm.Sched.(*StockScheduler)
	app := rm.NewApp("j")
	var asks []*Ask
	for i := 0; i < 12; i++ { // more than the cluster holds
		asks = append(asks, &Ask{App: app, Resource: oneContainer(), Tag: "map"})
	}
	eng.After(0, func() {
		rm.Allocate(app, asks, func([]*Container) {})
	})
	eng.RunUntil(sim.Time(3 * time.Second))
	if rm.LiveContainers() == 0 {
		t.Fatal("no containers granted before kill")
	}
	rm.KillApp(app)
	if len(app.PendingAsks()) != 0 {
		t.Fatalf("%d asks still pending after kill", len(app.PendingAsks()))
	}
	eng.RunUntil(sim.Time(10 * time.Second))
	if rm.LiveContainers() != 0 {
		t.Fatalf("%d containers live after kill + heartbeats", rm.LiveContainers())
	}
	if got := rm.TotalUsed(); !got.Zero() {
		t.Fatalf("TotalUsed = %v after kill", got)
	}
	// Dead asks still in the scheduler FIFO are purged lazily.
	eng.RunUntil(sim.Time(12 * time.Second))
	if sched.Queued() != 0 {
		t.Fatalf("scheduler still holds %d asks", sched.Queued())
	}
	if rm.Metrics.AppsKilled != 1 {
		t.Fatalf("AppsKilled = %d", rm.Metrics.AppsKilled)
	}
}

func TestFinishAppIdempotent(t *testing.T) {
	_, _, rm := testRM(t, 2)
	app := rm.NewApp("j")
	rm.FinishApp(app)
	rm.FinishApp(app)
	rm.KillApp(app) // after finish: no-op
	if app.State != AppFinished {
		t.Fatalf("state = %v", app.State)
	}
}

func TestWarmContainerSkipsJVMStart(t *testing.T) {
	eng, c, rm := testRM(t, 2)
	node := c.Workers()[0]
	nm := rm.NMOn(node)
	app := rm.NewApp("j")
	nt := rm.TrackerFor(node)
	cold := rm.Grant(&Ask{App: app, Resource: oneContainer(), Tag: "t"}, nt)
	warm := rm.Grant(&Ask{App: app, Resource: oneContainer(), Tag: "t"}, nt)
	var coldAt, warmAt sim.Time
	nm.StartContainer(cold, false, func() { coldAt = eng.Now() })
	nm.StartContainer(warm, true, func() { warmAt = eng.Now() })
	eng.RunUntil(sim.Time(10 * time.Second))
	if warmAt >= coldAt {
		t.Fatalf("warm start (%v) not faster than cold start (%v)", warmAt, coldAt)
	}
	if warmAt != sim.Time(rm.Params.RPCLatency) {
		t.Fatalf("warm start = %v, want just the RPC latency", warmAt)
	}
	if nm.Running() != 2 || nm.ContainersLaunched != 2 {
		t.Fatalf("NM bookkeeping wrong: running=%d launched=%d", nm.Running(), nm.ContainersLaunched)
	}
}

func TestStartContainerWrongNodePanics(t *testing.T) {
	_, c, rm := testRM(t, 2)
	app := rm.NewApp("j")
	nt := rm.TrackerFor(c.Workers()[0])
	ctr := rm.Grant(&Ask{App: app, Resource: oneContainer(), Tag: "t"}, nt)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-node start did not panic")
		}
	}()
	rm.NMOn(c.Workers()[1]).StartContainer(ctr, false, func() {})
}

func TestAskLocalityOn(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := topology.NewCluster(eng, topology.Spec{Instance: topology.A2, Workers: 4, Racks: 2})
	w := c.Workers()
	ask := &Ask{PreferredNodes: []*topology.Node{w[0]}, PreferredRacks: []string{w[0].Rack}}
	if got := ask.LocalityOn(w[0]); got != NodeLocal {
		t.Errorf("LocalityOn(preferred) = %v", got)
	}
	if got := ask.LocalityOn(w[2]); got != RackLocal { // same rack as w[0]
		t.Errorf("LocalityOn(same rack) = %v", got)
	}
	if got := ask.LocalityOn(w[1]); got != Any {
		t.Errorf("LocalityOn(other rack) = %v", got)
	}
	for _, l := range []Locality{NodeLocal, RackLocal, Any} {
		if l.String() == "" {
			t.Error("empty locality string")
		}
	}
}

func TestNodeTrackerAccounting(t *testing.T) {
	_, c, rm := testRM(t, 1)
	nt := rm.TrackerFor(c.Workers()[0])
	r := topology.Resource{VCores: 2, MemoryMB: 2048}
	rm.debit(nt, r)
	if nt.Used() != r || rm.TotalUsed() != r {
		t.Fatalf("Used = %v, TotalUsed = %v", nt.Used(), rm.TotalUsed())
	}
	rm.credit(nt, r)
	if !nt.Used().Zero() || !rm.TotalUsed().Zero() {
		t.Fatalf("after release Used = %v, TotalUsed = %v", nt.Used(), rm.TotalUsed())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	rm.credit(nt, r)
}

// Property: however many asks of whatever size arrive, no node tracker ever
// goes negative and total grants never exceed capacity.
func TestQuickNoOvercommit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		c, _ := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: 1 + rng.Intn(6), Racks: 2})
		rm := NewRM(eng, c, costmodel.Default(), NewStockScheduler())
		rm.Start()
		app := rm.NewApp("q")
		var asks []*Ask
		for i := 0; i < 5+rng.Intn(30); i++ {
			asks = append(asks, &Ask{
				App:      app,
				Resource: topology.Resource{VCores: 1 + rng.Intn(2), MemoryMB: 512 * (1 + rng.Intn(4))},
				Tag:      "m",
			})
		}
		eng.After(0, func() { rm.Allocate(app, asks, func([]*Container) {}) })
		eng.RunUntil(sim.Time(30 * time.Second))
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

func TestAllocateAfterKillReturnsNothing(t *testing.T) {
	eng, _, rm := testRM(t, 2)
	app := rm.NewApp("j")
	rm.KillApp(app)
	var resp []*Container
	called := false
	eng.After(0, func() {
		rm.Allocate(app, []*Ask{{App: app, Resource: oneContainer(), Tag: "m"}}, func(cs []*Container) {
			called = true
			resp = cs
		})
	})
	eng.RunUntil(sim.Time(5 * time.Second))
	if !called {
		t.Fatal("allocate callback never fired")
	}
	if len(resp) != 0 {
		t.Fatalf("killed app received %d containers", len(resp))
	}
}
