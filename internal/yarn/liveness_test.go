package yarn

import (
	"testing"
	"time"

	"mrapid/internal/sim"
)

func TestSilentNodeExpires(t *testing.T) {
	eng, c, rm := testRM(t, 4)
	victim := c.Workers()[1]
	capBefore := rm.TotalCapacity()
	eng.After(2*time.Second, victim.Fail)
	eng.RunUntil(sim.Time(20 * time.Second))

	nt := rm.TrackerFor(victim)
	if nt.Live {
		t.Fatal("silent node still marked live")
	}
	for _, l := range rm.Trackers() {
		if l.Node == victim {
			t.Fatal("expired node still in the RM's tracker snapshot")
		}
	}
	if rm.Metrics.NodesExpired != 1 {
		t.Fatalf("NodesExpired = %d, want 1", rm.Metrics.NodesExpired)
	}
	capAfter := rm.TotalCapacity()
	if capAfter.VCores >= capBefore.VCores {
		t.Fatalf("cluster capacity did not shrink: %v -> %v", capBefore, capAfter)
	}
}

func TestLostContainerReportedToApp(t *testing.T) {
	eng, _, rm := testRM(t, 4)
	var amC *Container
	app := rm.SubmitApp("j", oneContainer(), func(_ *App, c *Container) { amC = c })
	var lost *Container
	app.OnContainerLost = func(c *Container) { lost = c }
	eng.RunUntil(sim.Time(10 * time.Second))
	if amC == nil {
		t.Fatal("AM container never launched")
	}
	eng.After(0, func() { amC.Node.Fail() })
	eng.RunUntil(sim.Time(40 * time.Second))
	if lost != amC {
		t.Fatalf("OnContainerLost got %v, want %v", lost, amC)
	}
	if rm.Metrics.ContainersLost != 1 {
		t.Fatalf("ContainersLost = %d, want 1", rm.Metrics.ContainersLost)
	}
	if rm.LiveContainers() != 0 {
		t.Fatalf("lost container still tracked as live: %d", rm.LiveContainers())
	}
}

func TestRestartedNodeReadmittedWithFullCapacity(t *testing.T) {
	eng, c, rm := testRM(t, 4)
	victim := c.Workers()[2]
	eng.After(time.Second, victim.Fail)
	// Restart well after the expiry window so the node is declared lost
	// first, then re-admitted by its next heartbeat.
	eng.After(15*time.Second, victim.Restart)
	eng.RunUntil(sim.Time(30 * time.Second))

	nt := rm.TrackerFor(victim)
	if !nt.Live {
		t.Fatal("restarted node not re-admitted")
	}
	if rm.Metrics.NodesExpired != 1 || rm.Metrics.NodesRestored != 1 {
		t.Fatalf("expired/restored = %d/%d, want 1/1",
			rm.Metrics.NodesExpired, rm.Metrics.NodesRestored)
	}
	if nt.Avail != nt.Cap {
		t.Fatalf("re-admitted node avail %v, want full capacity %v", nt.Avail, nt.Cap)
	}
	found := false
	for _, l := range rm.Trackers() {
		if l.Node == victim {
			found = true
		}
	}
	if !found {
		t.Fatal("re-admitted node missing from the tracker snapshot")
	}
}

// A crash-and-quick-reboot never goes silent long enough to expire, but the
// NM comes back with a new boot epoch: the RM must treat that as a RESYNC
// and declare the previous boot's containers dead.
func TestQuickRebootResyncLosesContainers(t *testing.T) {
	eng, _, rm := testRM(t, 4)
	var amC *Container
	app := rm.SubmitApp("j", oneContainer(), func(_ *App, c *Container) { amC = c })
	var lost *Container
	app.OnContainerLost = func(c *Container) { lost = c }
	eng.RunUntil(sim.Time(10 * time.Second))
	if amC == nil {
		t.Fatal("AM container never launched")
	}
	eng.After(0, func() {
		amC.Node.Fail()
		eng.After(500*time.Millisecond, amC.Node.Restart)
	})
	eng.RunUntil(sim.Time(30 * time.Second))
	if rm.Metrics.NodesExpired != 0 {
		t.Fatalf("NodesExpired = %d, want 0 (node never went silent long enough)", rm.Metrics.NodesExpired)
	}
	if lost != amC {
		t.Fatal("resync did not report the previous boot's container as lost")
	}
	nt := rm.TrackerFor(amC.Node)
	if !nt.Live || nt.Avail != nt.Cap {
		t.Fatalf("rebooted node live=%v avail=%v cap=%v", nt.Live, nt.Avail, nt.Cap)
	}
}

// Expiry takes a node out of the live list, the capacity total and every
// tenant's absolute limit at once, and re-admission puts it back the same
// way: a request that fits a tenant's share of four nodes is refused while
// only three are schedulable and allowed again once the fourth returns.
func TestExpiryAndReadmitMoveCapacityAndQueueVerdict(t *testing.T) {
	eng, c, rm := testRM(t, 4) // 4×A3: 28 vcores, 28672 MB
	if err := rm.ConfigureQueues([]QueueConfig{
		{Name: "default", Capacity: 0.5}, {Name: "tenant", Capacity: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	app := rm.NewAppInQueue("j", "tenant")
	want := oneContainer().Scale(12) // ≤ half of 28, > half of 21
	victim := c.Workers()[2]
	check := func(when string, nodes int, allows bool) {
		t.Helper()
		if got := len(rm.Trackers()); got != nodes {
			t.Fatalf("%s: %d live nodes, want %d", when, got, nodes)
		}
		if got, exp := rm.TotalCapacity(), victim.Capacity().Scale(nodes); got != exp {
			t.Fatalf("%s: TotalCapacity = %v, want %v", when, got, exp)
		}
		if got := rm.QueueAllows(app, want); got != allows {
			t.Fatalf("%s: QueueAllows(%v) = %v, want %v", when, want, got, allows)
		}
		if err := rm.CheckView(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("before the crash", 4, true)
	eng.After(time.Second, victim.Fail)
	eng.After(15*time.Second, victim.Restart)
	eng.RunUntil(sim.Time(10 * time.Second))
	check("after expiry", 3, false)
	eng.RunUntil(sim.Time(30 * time.Second))
	check("after re-admission", 4, true)
	if used := rm.TotalUsed(); !used.Zero() {
		t.Fatalf("re-admitted node came back with %v allocated", used)
	}
}
