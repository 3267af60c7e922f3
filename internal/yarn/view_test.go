package yarn

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"mrapid/internal/costmodel"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
)

// tenantRM is a started RM over `workers` A3 nodes with three tenant queues
// of 0.7/3 each, the shape the cluster_stream benchmark runs.
func tenantRM(t testing.TB, workers int) (*sim.Engine, *topology.Cluster, *RM, []*App) {
	t.Helper()
	eng := sim.NewEngine()
	c, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: workers, Racks: 8})
	if err != nil {
		t.Fatal(err)
	}
	rm := NewRM(eng, c, costmodel.Default(), NewStockScheduler())
	var cfg []QueueConfig
	for _, name := range []string{"t0", "t1", "t2"} {
		cfg = append(cfg, QueueConfig{Name: name, Capacity: 0.7 / 3})
	}
	if err := rm.ConfigureQueues(cfg); err != nil {
		t.Fatal(err)
	}
	rm.Start()
	var apps []*App
	for _, q := range cfg {
		apps = append(apps, rm.NewAppInQueue("app-"+q.Name, q.Name))
	}
	return eng, c, rm, apps
}

// Property: through a seeded random sequence of grants, releases that land
// on a heartbeat, node crashes, expiries, quick reboots (RESYNC) and
// re-admissions, the incrementally maintained view equals a brute-force
// recomputation after every step, and a Trackers() slice taken before a step
// still lists afterwards what it listed before.
func TestClusterViewMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng, c, rm, apps := tenantRM(t, 8)
		workers := c.Workers()
		var held []*Container
		resyncs := 0
		for step := 0; step < 600; step++ {
			snapshot := rm.Trackers()
			before := slices.Clone(snapshot)
			what := "advance"
			switch op := rng.Intn(10); {
			case op < 4:
				what = "grant"
				live := rm.Trackers()
				if len(live) == 0 {
					break
				}
				// A crashed node that has not expired yet is still live here:
				// the doomed allocations Hadoop makes in that window.
				nt := live[rng.Intn(len(live))]
				ask := &Ask{App: apps[rng.Intn(len(apps))], Resource: oneContainer().Scale(1 + rng.Intn(2)), Tag: "t"}
				if ask.Resource.FitsIn(nt.Avail) && rm.QueueAllows(ask.App, ask.Resource) {
					held = append(held, rm.Grant(ask, nt))
				}
			case op < 6:
				what = "release"
				held = slices.DeleteFunc(held, func(c *Container) bool { return c.released })
				if len(held) > 0 {
					rm.ReleaseContainer(held[rng.Intn(len(held))])
				}
			case op < 7:
				what = "crash"
				workers[rng.Intn(len(workers))].Fail()
			case op < 8:
				what = "restart"
				n := workers[rng.Intn(len(workers))]
				if !n.Alive() && rm.TrackerFor(n).Live {
					resyncs++ // back before the monitor noticed
				}
				n.Restart()
			default:
				// Heartbeats drain releases, the monitor expires silent
				// nodes, rebooted nodes resync or are re-admitted.
				eng.RunUntil(eng.Now().Add(time.Duration(rng.Intn(4000)) * time.Millisecond))
			}
			if err := rm.CheckView(); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, what, err)
			}
			if !slices.Equal(snapshot, before) {
				t.Fatalf("seed %d step %d (%s): a Trackers() snapshot was edited in place", seed, step, what)
			}
		}
		rm.Stop()
		m := rm.Metrics
		if m.NodesExpired == 0 || m.NodesRestored == 0 || resyncs == 0 || m.Releases == 0 || m.ContainersLost == 0 {
			t.Fatalf("seed %d did not reach every transition: %+v, %d resyncs", seed, m, resyncs)
		}
	}
}

// The questions a scheduler asks per ask per node must not allocate: this is
// the gate that would have caught the per-call Trackers() rebuild.
func TestClusterViewQuestionsDoNotAllocate(t *testing.T) {
	_, _, rm, apps := tenantRM(t, 256)
	rm.Grant(&Ask{App: apps[0], Resource: oneContainer(), Tag: "t"}, rm.Trackers()[3])
	var nodes int
	var capacity, used topology.Resource
	var allowed bool
	for name, ask := range map[string]func(){
		"QueueAllows":   func() { allowed = rm.QueueAllows(apps[1], oneContainer()) },
		"TotalCapacity": func() { capacity = rm.TotalCapacity() },
		"TotalUsed":     func() { used = rm.TotalUsed() },
		"Trackers":      func() { nodes = len(rm.Trackers()) },
	} {
		if n := testing.AllocsPerRun(100, ask); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
	if nodes != 256 || !allowed || used != oneContainer() || capacity != topology.A3.Resource().Scale(256) {
		t.Fatalf("nodes=%d allowed=%v used=%v capacity=%v", nodes, allowed, used, capacity)
	}
}
