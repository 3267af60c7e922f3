package yarn

import (
	"mrapid/internal/metrics"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
)

// NM is a NodeManager: it launches containers on its node when the AM asks,
// and reports completed containers back to the ResourceManager on its next
// heartbeat — the release lag stock Hadoop pays.
type NM struct {
	rm   *RM
	Node *topology.Node

	pendingRelease []*Container
	running        map[ContainerID]*Container

	// launched is the node-labeled launch counter, bound once per registry.
	launched    metrics.Counter
	launchedSrc *metrics.Registry

	// ContainersLaunched counts lifetime launches for metrics.
	ContainersLaunched int64
}

func newNM(rm *RM, n *topology.Node) *NM {
	return &NM{rm: rm, Node: n, running: make(map[ContainerID]*Container)}
}

// StartContainer models the AM→NM start-container RPC followed by container
// localization and, for cold containers, a JVM boot. warm containers (the
// reused ApplicationMasters of the MRapid submission framework) skip both
// the launch and the JVM start and pay only the RPC. ready fires on the
// node once the process is accepting work.
func (nm *NM) StartContainer(c *Container, warm bool, ready func()) {
	if ready == nil {
		panic("yarn: StartContainer needs a ready callback")
	}
	if c.Node != nm.Node {
		panic("yarn: container started on wrong node")
	}
	p := nm.rm.Params
	delay := p.RPCLatency
	var span trace.SpanID
	if !warm {
		delay += p.ContainerLaunch + p.JVMStart
		if nm.rm.Trace != nil {
			span = nm.rm.Trace.StartSpan(c.App.Span, "nm/"+nm.Node.Name, "launch "+c.Tag, "launch",
				trace.A("container", c.String()))
		}
	}
	epoch := nm.Node.Epoch()
	nm.rm.Eng.After(delay, func() {
		if !nm.Node.AliveEpoch(epoch) {
			// The node died before (or while) the container process came up:
			// ready never fires (the launch span stays open), and the RM
			// reports the container lost once the liveness monitor notices.
			return
		}
		if span != 0 {
			nm.rm.Trace.EndSpan(span)
		}
		nm.running[c.ID] = c
		nm.ContainersLaunched++
		if nm.launchedSrc != nm.rm.Reg {
			nm.launchedSrc = nm.rm.Reg
			nm.launched = nm.rm.Reg.CounterHandle("yarn_containers_launched_total", "node", nm.Node.Name)
		}
		nm.launched.Inc()
		ready()
	})
}

// crash wipes the NM's volatile state when its machine dies: running
// containers are gone and queued release reports will never be sent.
func (nm *NM) crash() {
	nm.running = make(map[ContainerID]*Container)
	nm.pendingRelease = nil
}

// queueRelease records a finished container; the RM is told at the next
// heartbeat.
func (nm *NM) queueRelease(c *Container) {
	delete(nm.running, c.ID)
	nm.pendingRelease = append(nm.pendingRelease, c)
}

func (nm *NM) drainReleases() []*Container {
	out := nm.pendingRelease
	nm.pendingRelease = nil
	return out
}

// Running reports how many containers the NM currently hosts.
func (nm *NM) Running() int { return len(nm.running) }
