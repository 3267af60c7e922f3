// Package yarn implements the simulated cluster resource manager: a
// ResourceManager with pluggable scheduling, per-node NodeManagers that
// heartbeat status and launch containers, and the application-master
// allocate protocol. The stock scheduler reproduces the Hadoop 2 behaviour
// the paper criticizes — container requests are only served when a
// NodeManager heartbeat arrives, greedily packing the reporting node — so
// that the D+ scheduler (package core) has the real baseline to beat.
package yarn

import (
	"fmt"

	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
)

// ContainerID identifies a granted container.
type ContainerID int

// Container is a granted lease of resources on one node.
type Container struct {
	ID       ContainerID
	Node     *topology.Node
	Resource topology.Resource
	App      *App
	Tag      string // diagnostic label, e.g. "map-3", "reduce-0", "am"

	// released guards against double release: an app kill and the task's
	// own completion can both hand the container back.
	released bool
}

func (c *Container) String() string {
	return fmt.Sprintf("container-%d(%s on %s)", c.ID, c.Tag, c.Node.Name)
}

// Locality classifies how well an allocation matched its ask's preference.
type Locality int

// Locality levels, best first.
const (
	NodeLocal Locality = iota
	RackLocal
	Any
)

func (l Locality) String() string {
	switch l {
	case NodeLocal:
		return "NODE_LOCAL"
	case RackLocal:
		return "RACK_LOCAL"
	default:
		return "ANY"
	}
}

// Ask is one container request with locality preferences, the unit the
// scheduler works on. PreferredNodes come from the input split's replica
// locations; PreferredRacks from those replicas' racks.
type Ask struct {
	App            *App
	Resource       topology.Resource
	PreferredNodes []*topology.Node
	PreferredRacks []string
	Tag            string

	// direct, when set, receives the granted container immediately instead
	// of the grant being buffered for the app's next AM heartbeat. The RM
	// uses it for ApplicationMaster containers, which have no AM to
	// heartbeat yet.
	direct func(*Container)

	// arrived is when the RM accepted the ask; Grant turns it into the
	// scheduling-wait span (same-beat D+ answers show ~zero wait, stock
	// heartbeat-driven grants show the full wait).
	arrived sim.Time
}

// IsDirect reports whether this ask bypasses heartbeat delivery (AM
// container asks). Schedulers must route direct asks through Deliver even
// when answering a request in its own heartbeat.
func (a *Ask) IsDirect() bool { return a.direct != nil }

// Deliver routes a granted container: direct asks fire their callback, all
// others buffer on the app until its next allocate heartbeat drains them.
func (a *Ask) Deliver(c *Container) {
	if a.direct != nil {
		a.direct(c)
		return
	}
	a.App.granted = append(a.App.granted, c)
}

// LocalityOn classifies what locality assigning this ask to node n achieves.
func (a *Ask) LocalityOn(n *topology.Node) Locality {
	for _, p := range a.PreferredNodes {
		if p == n {
			return NodeLocal
		}
	}
	for _, r := range a.PreferredRacks {
		if r == n.Rack {
			return RackLocal
		}
	}
	return Any
}

// NodeTracker is the ResourceManager's view of one node: its capacity and
// currently unallocated resources. This collection is exactly the "Cluster
// Resource" structure of the paper's Figure 3, which the D+ scheduler
// consults to answer requests without waiting for node heartbeats. Schedulers
// read it; only the RM writes it (Grant, heartbeat releases, node loss), so
// its cluster-wide totals stay in step.
type NodeTracker struct {
	Node  *topology.Node
	Cap   topology.Resource
	Avail topology.Resource

	// Live is the RM's belief about the node. It lags reality: a crashed
	// node stays Live (and schedulable) until the liveness monitor notices
	// the missed heartbeats, exactly Hadoop's window of doomed allocations.
	Live bool

	// lastHeartbeat is when the node last reported; epochSeen is the node
	// boot generation of that report, used to detect a crash+restart that
	// happened entirely between two heartbeats (Hadoop's NM RESYNC).
	lastHeartbeat sim.Time
	epochSeen     int
}

// Used returns the allocated resources.
func (nt *NodeTracker) Used() topology.Resource { return nt.Cap.Sub(nt.Avail) }

// Scheduler decides container placement. Implementations: the stock greedy
// CapacityScheduler (this package) and MRapid's Algorithm 1 (package core).
type Scheduler interface {
	// Name identifies the scheduler in traces and metrics.
	Name() string

	// OnAllocate handles the asks arriving on an AM heartbeat
	// (CONTAINER_STATUS_UPDATE). It may grant immediately from the RM's
	// cluster-resource view and return the containers — the D+ behaviour —
	// or queue the asks and return nil, the stock behaviour.
	OnAllocate(rm *RM, app *App, asks []*Ask) []*Container

	// OnNodeUpdate handles a node heartbeat (NODE_STATUS_UPDATE), the only
	// moment the stock scheduler hands out that node's resources. Grants
	// made here are buffered on the app and delivered at its next AM
	// heartbeat.
	OnNodeUpdate(rm *RM, nt *NodeTracker)

	// Queued reports the asks currently waiting in the scheduler — the
	// pending-container backlog the flight recorder samples as a gauge.
	// Schedulers that grant immediately (D+) report 0 except for asks
	// deferred to a later heartbeat.
	Queued() int
}

// AppState tracks an application's lifecycle.
type AppState int

// Application lifecycle states.
const (
	AppSubmitted AppState = iota
	AppRunning
	AppFinished
	AppKilled
)

// App is the ResourceManager's record of one running application.
type App struct {
	ID    int
	Name  string
	State AppState
	// Queue is the tenant queue the app submits to ("" = default).
	Queue string

	// Span is the trace span the app's activity (scheduling waits,
	// container launches) nests under — the owning job's root span, or 0
	// when untraced. The AM that adopts the app sets it.
	Span trace.SpanID

	// granted buffers containers allocated by node-heartbeat-driven
	// scheduling until the AM's next allocate heartbeat picks them up.
	granted []*Container
	// queued are asks accepted but not yet satisfied.
	queued []*Ask

	// OnContainerLost, when set, is how the RM tells this app's AM that a
	// container vanished with its node (delivered one RPC latency after the
	// RM notices). The container's work must be considered gone: AMs
	// reschedule the task, the AM pool replenishes a lost pooled AM.
	OnContainerLost func(*Container)
}

// PendingAsks returns the app's unsatisfied asks (the scheduler's queue).
func (a *App) PendingAsks() []*Ask { return a.queued }

// AddPending records an accepted-but-unsatisfied ask on the app. Schedulers
// call it when they enqueue an ask.
func (a *App) AddPending(ask *Ask) { a.queued = append(a.queued, ask) }

// RemovePending drops a satisfied or abandoned ask from the app's pending
// list; removing an unknown ask is a no-op.
func (a *App) RemovePending(ask *Ask) {
	for i, x := range a.queued {
		if x == ask {
			a.queued = append(a.queued[:i], a.queued[i+1:]...)
			return
		}
	}
}

// Alive reports whether the app can still receive containers.
func (a *App) Alive() bool { return a.State != AppKilled && a.State != AppFinished }

// dropGranted removes a container from the undelivered-grant buffer (its
// node died before the AM's next heartbeat could pick it up).
func (a *App) dropGranted(c *Container) {
	for i, g := range a.granted {
		if g == c {
			a.granted = append(a.granted[:i], a.granted[i+1:]...)
			return
		}
	}
}
