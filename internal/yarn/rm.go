package yarn

import (
	"fmt"
	"time"

	"mrapid/internal/costmodel"
	"mrapid/internal/metrics"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
)

// Metrics counts protocol activity for analysis and tests.
type Metrics struct {
	AMHeartbeats  int64
	NMHeartbeats  int64
	Allocations   int64
	Releases      int64
	AppsSubmitted int64
	AppsKilled    int64
	// ByLocality counts allocations per achieved locality level.
	ByLocality [3]int64

	// NodesExpired counts nodes the liveness monitor declared lost;
	// NodesRestored counts re-admissions after a restarted NM heartbeats
	// again; ContainersLost counts containers that vanished with their node.
	NodesExpired   int64
	NodesRestored  int64
	ContainersLost int64
}

// RM is the simulated ResourceManager. It owns the authoritative per-node
// resource view (the Cluster Resource structure of the paper's Figure 3),
// drives NodeManager heartbeats, and delegates placement to a pluggable
// Scheduler.
//
// The view is maintained incrementally, so every question a scheduler asks
// per ask per node (Trackers, TotalCapacity, TotalUsed, QueueAllows) is a
// field read. Only the RM mutates it: debit and credit move a tracker's free
// resources and the used total together, and rebuildView runs when a node
// leaves or re-enters the schedulable cluster.
type RM struct {
	Eng     *sim.Engine
	Cluster *topology.Cluster
	Params  costmodel.Params
	Sched   Scheduler
	Metrics Metrics

	// Trace, when non-nil, records scheduling events and spans on the
	// virtual clock.
	Trace *trace.Log

	// Reg, when non-nil, receives labeled counters and the allocation-
	// latency histogram.
	Reg *metrics.Registry

	trackers  []*NodeTracker // every worker, in cluster order, for good
	trackerOf map[*topology.Node]*NodeTracker

	// liveTrackers is the Live subset of trackers in the same order. It is
	// replaced, never edited, on a membership change, so a slice a caller
	// got from Trackers() before an expiry still lists what it listed then.
	liveTrackers []*NodeTracker
	// capacity sums Cap over liveTrackers. used sums Used over all trackers,
	// which is the same as over the live ones: losing a node empties its
	// tracker and Grant refuses a node that is not live.
	capacity topology.Resource
	used     topology.Resource

	nms map[*topology.Node]*NM

	nextContainer ContainerID
	nextApp       int
	live          map[ContainerID]*Container
	started       bool
	tickers       []*sim.Ticker

	// queues, when configured, enforces per-tenant capacity ceilings.
	queues map[string]*queue
}

// NewRM builds a ResourceManager over the cluster's worker nodes.
func NewRM(eng *sim.Engine, cluster *topology.Cluster, params costmodel.Params, sched Scheduler) *RM {
	rm := &RM{
		Eng:       eng,
		Cluster:   cluster,
		Params:    params,
		Sched:     sched,
		trackerOf: make(map[*topology.Node]*NodeTracker),
		nms:       make(map[*topology.Node]*NM),
		live:      make(map[ContainerID]*Container),
	}
	for _, n := range cluster.Workers() {
		nt := &NodeTracker{Node: n, Cap: n.Capacity(), Avail: n.Capacity(), Live: true, epochSeen: n.Epoch()}
		rm.trackers = append(rm.trackers, nt)
		rm.trackerOf[n] = nt
		rm.nms[n] = newNM(rm, n)
	}
	rm.rebuildView()
	return rm
}

// rebuildView recomputes everything that depends on which nodes are live:
// the live list, the capacity total and each tenant queue's absolute limit.
// It runs at construction, on expiry, on re-admission and when queues are
// configured — never on the grant path, where none of the three can change.
func (rm *RM) rebuildView() {
	live := make([]*NodeTracker, 0, len(rm.trackers))
	var capacity topology.Resource
	for _, nt := range rm.trackers {
		if nt.Live {
			live = append(live, nt)
			capacity = capacity.Add(nt.Cap)
		}
	}
	rm.liveTrackers, rm.capacity = live, capacity
	for _, q := range rm.queues {
		q.limit = q.limitOf(capacity)
	}
}

// debit and credit are the only places a tracker's free resources move, so
// the used total cannot drift from the per-node figures. Overcommit and
// over-release panic: scheduler bugs must fail loudly.
func (rm *RM) debit(nt *NodeTracker, r topology.Resource) {
	nt.Avail = nt.Avail.Sub(r)
	rm.used = rm.used.Add(r)
}

func (rm *RM) credit(nt *NodeTracker, r topology.Resource) {
	nt.Avail = nt.Avail.Add(r)
	if !nt.Avail.FitsIn(nt.Cap) {
		panic(fmt.Sprintf("yarn: node %s over-released: %v > %v", nt.Node.Name, nt.Avail, nt.Cap))
	}
	rm.used = rm.used.Sub(r)
}

// Start begins NodeManager heartbeats, staggered deterministically across
// the heartbeat period so node reports interleave the way independent NM
// daemons do rather than arriving in one burst.
func (rm *RM) Start() {
	if rm.started {
		panic("yarn: RM started twice")
	}
	rm.started = true
	n := len(rm.trackers)
	now := rm.Eng.Now()
	for i, nt := range rm.trackers {
		nt := nt
		nt.lastHeartbeat = now // expiry countdown starts at RM start
		offset := rm.Params.NMHeartbeat * time.Duration(i+1) / time.Duration(n+1)
		rm.Eng.After(offset, func() {
			rm.nodeHeartbeat(nt)
			rm.tickers = append(rm.tickers, rm.Eng.Every(rm.Params.NMHeartbeat, func() { rm.nodeHeartbeat(nt) }))
		})
	}
	// The liveness monitor expires nodes whose NM went silent. Guarded so
	// hand-built Params without the liveness knobs keep their old behavior.
	if rm.Params.NMLivenessInterval > 0 && rm.Params.NMExpiry > 0 {
		rm.tickers = append(rm.tickers, rm.Eng.Every(rm.Params.NMLivenessInterval, rm.checkLiveness))
	}
}

// Stop halts all NodeManager heartbeats so the event queue can drain; used
// when a simulation run is complete. A stopped RM may be started again for
// a subsequent job in the same simulation.
func (rm *RM) Stop() {
	for _, t := range rm.tickers {
		t.Stop()
	}
	rm.tickers = nil
	rm.started = false
}

// Started reports whether the NodeManagers are heartbeating.
func (rm *RM) Started() bool { return rm.started }

func (rm *RM) nodeHeartbeat(nt *NodeTracker) {
	if !nt.Node.Alive() {
		// A crashed machine sends nothing; the liveness monitor will notice.
		return
	}
	if nt.epochSeen != nt.Node.Epoch() {
		// The node crashed and rebooted entirely between two reports: the NM
		// re-registers (Hadoop's RESYNC) and every container it hosted died
		// with the previous boot.
		rm.loseNodeContainers(nt, "nm resync")
		nt.epochSeen = nt.Node.Epoch()
	}
	nt.lastHeartbeat = rm.Eng.Now()
	if !nt.Live {
		// Re-admission: the node re-enters the live list, the capacity total
		// and every queue limit in one step. It comes back empty — the expiry
		// (or the resync just above) already reset its tracker.
		nt.Live = true
		rm.rebuildView()
		rm.Metrics.NodesRestored++
		if rm.Trace != nil {
			rm.Trace.Mark(0, "rm", "node re-admitted", trace.A("node", nt.Node.Name))
		}
	}
	rm.Metrics.NMHeartbeats++
	nm := rm.nms[nt.Node]
	// Releases reported by the NM free resources first, then the scheduler
	// sees the NODE_STATUS_UPDATE.
	for _, c := range nm.drainReleases() {
		rm.credit(nt, c.Resource)
		rm.creditQueue(c.App, c.Resource)
		delete(rm.live, c.ID)
		rm.Metrics.Releases++
		if rm.Trace != nil {
			rm.Trace.Mark(c.App.Span, "rm", "released", trace.A("container", c.String()))
		}
	}
	rm.Sched.OnNodeUpdate(rm, nt)
}

// checkLiveness is the RM's NM liveness monitor: any node silent for
// NMExpiry is declared lost.
func (rm *RM) checkLiveness() {
	now := rm.Eng.Now()
	for _, nt := range rm.trackers {
		if nt.Live && now.Sub(nt.lastHeartbeat) >= rm.Params.NMExpiry {
			rm.expireNode(nt)
		}
	}
}

// expireNode removes a silent node from the schedulable cluster and reports
// its containers as lost to their owning applications.
func (rm *RM) expireNode(nt *NodeTracker) {
	nt.Live = false
	rm.rebuildView()
	rm.Metrics.NodesExpired++
	if rm.Trace != nil {
		rm.Trace.Mark(0, "rm", "node expired", trace.A("node", nt.Node.Name),
			trace.A("silent_for", rm.Params.NMExpiry.String()))
	}
	rm.loseNodeContainers(nt, "node expired")
}

// loseNodeContainers declares every container on the node gone: resources
// are returned to the (now empty) tracker and tenant queues, and owning apps
// that registered OnContainerLost hear about it after one RPC latency.
// Containers whose release was queued at the dead NM are cleaned up silently
// — their work had already completed.
func (rm *RM) loseNodeContainers(nt *NodeTracker, why string) {
	rm.nms[nt.Node].crash()
	// All of a node's loss notifications share one RPC-latency event: the
	// callbacks run consecutively in container order, exactly as N separate
	// same-instant events would, at one queue insertion.
	var lost []func()
	for _, c := range rm.liveOnNode(nt.Node) {
		delete(rm.live, c.ID)
		rm.creditQueue(c.App, c.Resource)
		rm.Metrics.ContainersLost++
		if rm.Trace != nil {
			rm.Trace.Mark(c.App.Span, "rm", "lost", trace.A("container", c.String()), trace.A("why", why))
		}
		if c.released {
			continue
		}
		c.released = true
		// An undelivered grant dies before the AM ever saw the container.
		c.App.dropGranted(c)
		if cb := c.App.OnContainerLost; cb != nil && c.App.Alive() {
			cc := c
			lost = append(lost, func() { cb(cc) })
		}
	}
	if len(lost) > 0 {
		rm.Eng.After(rm.Params.RPCLatency, func() {
			for _, f := range lost {
				f()
			}
		})
	}
	rm.credit(nt, nt.Used())
}

func (rm *RM) liveOnNode(n *topology.Node) []*Container {
	var out []*Container
	for _, c := range rm.live {
		if c.Node == n {
			out = append(out, c)
		}
	}
	// Deterministic order.
	sortContainers(out)
	return out
}

// Trackers exposes the RM's per-node resource view — the Cluster Resource
// structure the D+ scheduler allocates from. Expired nodes are excluded: a
// dead node must never appear in the snapshot the D+ scheduler packs. The
// slice is the RM's own and must not be modified; copy it to reorder it.
func (rm *RM) Trackers() []*NodeTracker { return rm.liveTrackers }

// TrackerFor returns the tracker for a worker node.
func (rm *RM) TrackerFor(n *topology.Node) *NodeTracker { return rm.trackerOf[n] }

// NMOn returns the NodeManager on a worker node.
func (rm *RM) NMOn(n *topology.Node) *NM { return rm.nms[n] }

// TotalUsed is the allocated resources across live nodes.
func (rm *RM) TotalUsed() topology.Resource { return rm.used }

// TotalCapacity is the live worker capacity (an expired node's resources are
// not schedulable, so tenant-queue ceilings shrink with it).
func (rm *RM) TotalCapacity() topology.Resource { return rm.capacity }

// NewApp registers an application record in the default queue.
func (rm *RM) NewApp(name string) *App {
	return rm.NewAppInQueue(name, "")
}

// NewAppInQueue registers an application under a tenant queue. An invalid
// queue panics: submission-time validation belongs to the caller
// (ValidQueue), and a scheduler must never see an unroutable app.
func (rm *RM) NewAppInQueue(name, queue string) *App {
	if !rm.ValidQueue(queue) {
		panic(fmt.Sprintf("yarn: unknown queue %q", queue))
	}
	rm.nextApp++
	rm.Metrics.AppsSubmitted++
	return &App{ID: rm.nextApp, Name: name, Queue: queue, State: AppSubmitted}
}

// Grant is the scheduler's allocation primitive: it debits the node tracker,
// mints a container, and records locality metrics. The caller decides how
// the container reaches the app (buffered for the next AM heartbeat, direct
// callback, or an immediate D+ response).
func (rm *RM) Grant(ask *Ask, nt *NodeTracker) *Container {
	if !nt.Live {
		panic(fmt.Sprintf("yarn: grant on expired node %s", nt.Node.Name))
	}
	rm.debit(nt, ask.Resource)
	rm.chargeQueue(ask.App, ask.Resource)
	rm.nextContainer++
	c := &Container{ID: rm.nextContainer, Node: nt.Node, Resource: ask.Resource, App: ask.App, Tag: ask.Tag}
	rm.live[c.ID] = c
	loc := ask.LocalityOn(nt.Node)
	rm.Metrics.Allocations++
	rm.Metrics.ByLocality[loc]++
	if rm.Trace != nil {
		// The scheduling-wait span: ask arrival → grant. A same-heartbeat D+
		// answer shows ~2×RPC of wait; a stock grant shows the node-heartbeat
		// wait the paper's Figure 2 attributes to allocation.
		rm.Trace.SpanSince(ask.App.Span, "rm", "alloc "+ask.Tag, "schedule", ask.arrived,
			trace.A("app", fmt.Sprint(ask.App.ID)),
			trace.A("container", fmt.Sprint(int(c.ID))),
			trace.A("node", nt.Node.Name),
			trace.A("locality", loc.String()))
	}
	rm.Reg.HistogramHandle("yarn_alloc_latency_seconds").Observe(rm.Eng.Now().Sub(ask.arrived).Seconds())
	rm.Reg.CounterHandle("yarn_allocations_total", "locality", loc.String(), "sched", rm.Sched.Name()).Inc()
	return c
}

// Allocate is one AM→RM allocate heartbeat carrying new asks; the response
// (delivered after the round-trip RPC latency) contains any containers
// granted immediately by the scheduler plus everything buffered since the
// previous heartbeat. With the stock scheduler a request is never satisfied
// in its own heartbeat — the paper's "waiting for at least two heartbeats".
func (rm *RM) Allocate(app *App, asks []*Ask, respond func([]*Container)) {
	if respond == nil {
		panic("yarn: Allocate needs a response callback")
	}
	rm.Eng.After(rm.Params.RPCLatency, func() {
		rm.Metrics.AMHeartbeats++
		rm.Reg.CounterHandle("yarn_am_heartbeats_total").Inc()
		if app.State == AppKilled || app.State == AppFinished {
			rm.Eng.After(rm.Params.RPCLatency, func() { respond(nil) })
			return
		}
		app.State = AppRunning
		for _, a := range asks {
			a.arrived = rm.Eng.Now()
		}
		immediate := rm.Sched.OnAllocate(rm, app, asks)
		response := append(app.granted, immediate...)
		app.granted = nil
		rm.Eng.After(rm.Params.RPCLatency, func() { respond(response) })
	})
}

// SubmitApp models steps 1–3 of the Hadoop submission flow for a job that
// does NOT use the MRapid submission framework: the client submits over RPC,
// the scheduler finds an AM container (with the stock scheduler this waits
// for a node heartbeat), the chosen NodeManager launches the AM JVM, and
// launched(app, container) fires once the AM process is up (its own
// initialization is charged by the caller).
func (rm *RM) SubmitApp(name string, amResource topology.Resource, launched func(*App, *Container)) *App {
	return rm.SubmitAppInQueue(name, "", amResource, launched)
}

// SubmitAppInQueue is SubmitApp for a tenant queue: the app (and therefore
// its AM container and every task container it asks for) is charged against
// the queue's capacity ceiling. An invalid queue panics, like NewAppInQueue:
// validation belongs at the submission boundary (ValidQueue).
func (rm *RM) SubmitAppInQueue(name, queue string, amResource topology.Resource, launched func(*App, *Container)) *App {
	if launched == nil {
		panic("yarn: SubmitApp needs a launch callback")
	}
	app := rm.NewAppInQueue(name, queue)
	ask := &Ask{App: app, Resource: amResource, Tag: "am"}
	ask.direct = func(c *Container) {
		rm.nms[c.Node].StartContainer(c, false, func() { launched(app, c) })
	}
	rm.Eng.After(rm.Params.RPCLatency, func() {
		ask.arrived = rm.Eng.Now()
		rm.Sched.OnAllocate(rm, app, []*Ask{ask})
	})
	return app
}

// ReleaseContainer returns a finished container's resources. The NM queues
// the release and the RM learns of it at the node's next heartbeat, exactly
// the lag stock Hadoop has. Releasing the same container again (an app kill
// racing the task's own completion) is a no-op.
func (rm *RM) ReleaseContainer(c *Container) {
	if c.released {
		return
	}
	c.released = true
	nm, ok := rm.nms[c.Node]
	if !ok {
		panic(fmt.Sprintf("yarn: release on unknown node %s", c.Node.Name))
	}
	nm.queueRelease(c)
}

// KillApp terminates an application: queued asks are dropped and all its
// live containers are released. Used by speculative execution to stop the
// losing mode.
func (rm *RM) KillApp(app *App) {
	if app.State == AppKilled || app.State == AppFinished {
		return
	}
	app.State = AppKilled
	rm.Metrics.AppsKilled++
	if rm.Trace != nil {
		rm.Trace.Mark(app.Span, "rm", "killed app", trace.A("app", fmt.Sprint(app.ID)), trace.A("name", app.Name))
	}
	app.queued = nil
	app.granted = nil
	for _, c := range rm.liveOf(app) {
		rm.ReleaseContainer(c)
	}
}

// FinishApp marks an application complete and releases any straggler
// containers it still holds.
func (rm *RM) FinishApp(app *App) {
	if app.State == AppKilled || app.State == AppFinished {
		return
	}
	app.State = AppFinished
	for _, c := range rm.liveOf(app) {
		rm.ReleaseContainer(c)
	}
}

func (rm *RM) liveOf(app *App) []*Container {
	var out []*Container
	for _, c := range rm.live {
		if c.App == app {
			out = append(out, c)
		}
	}
	// Deterministic order.
	sortContainers(out)
	return out
}

// LiveContainers reports the number of currently allocated containers.
func (rm *RM) LiveContainers() int { return len(rm.live) }

// ContainersByNode counts the live containers on each worker node, keyed by
// node name — the per-node running-container gauge the flight recorder
// samples. Every tracked node appears, so an idle node reports 0 rather
// than vanishing from the series.
func (rm *RM) ContainersByNode() map[string]int {
	out := make(map[string]int, len(rm.trackers))
	for _, nt := range rm.trackers {
		out[nt.Node.Name] = 0
	}
	for _, c := range rm.live {
		out[c.Node.Name]++
	}
	return out
}

// PendingAsks reports the scheduler's queued-ask backlog: container
// requests accepted but not yet granted.
func (rm *RM) PendingAsks() int { return rm.Sched.Queued() }

func sortContainers(cs []*Container) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].ID < cs[j-1].ID; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
