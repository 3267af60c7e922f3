package mapreduce

import (
	"fmt"
	"strings"
	"time"

	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
)

// NodeFault is one scripted machine failure: the named worker crashes at
// virtual time At; if RestartAfter > 0 it reboots that long after the crash
// (with empty local disk and fresh devices — HDFS block replicas survive,
// intermediate map output does not).
type NodeFault struct {
	Node         string
	At           time.Duration
	RestartAfter time.Duration
}

func (f NodeFault) String() string {
	if f.RestartAfter > 0 {
		return fmt.Sprintf("%s@%s:%s", f.Node, f.At, f.RestartAfter)
	}
	return fmt.Sprintf("%s@%s", f.Node, f.At)
}

// ParseNodeFaults parses a comma-separated node-fault schedule of the form
//
//	node@at[:restartAfter]
//
// e.g. "node-02@5s" (node-02 dies 5 s in, stays dead) or
// "node-02@5s:20s,node-07@8s" (node-02 reboots 20 s after crashing). An
// empty string yields no faults.
func ParseNodeFaults(s string) ([]NodeFault, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []NodeFault
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, rest, ok := strings.Cut(item, "@")
		if !ok || name == "" {
			return nil, fmt.Errorf("mapreduce: node fault %q: want node@at[:restartAfter]", item)
		}
		atStr, restartStr, hasRestart := strings.Cut(rest, ":")
		at, err := time.ParseDuration(atStr)
		if err != nil || at < 0 {
			return nil, fmt.Errorf("mapreduce: node fault %q: bad crash time %q", item, atStr)
		}
		f := NodeFault{Node: name, At: at}
		if hasRestart {
			d, err := time.ParseDuration(restartStr)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("mapreduce: node fault %q: bad restart delay %q", item, restartStr)
			}
			f.RestartAfter = d
		}
		out = append(out, f)
	}
	return out, nil
}

// ScheduleNodeFaults arms the scripted machine failures on the runtime's
// virtual clock. Each fault's At is measured from the moment the schedule
// is armed — callers arm it when the cluster is ready, just before
// submitting work, so "node-02@5s" means five seconds into the run
// regardless of how much virtual time framework startup consumed. Only
// worker nodes may fail (the master hosts the simulated RM and NameNode).
func (rt *Runtime) ScheduleNodeFaults(faults []NodeFault) error {
	for _, f := range faults {
		var target *topology.Node
		for _, w := range rt.Cluster.Workers() {
			if w.Name == f.Node {
				target = w
				break
			}
		}
		if target == nil {
			if rt.Cluster.Master().Name == f.Node {
				return fmt.Errorf("mapreduce: node fault on master %q: the master cannot fail", f.Node)
			}
			return fmt.Errorf("mapreduce: node fault on unknown node %q", f.Node)
		}
		at := rt.Eng.Now() + sim.Time(f.At)
		n, restart := target, f.RestartAfter
		rt.Eng.At(at, func() {
			if rt.Trace != nil {
				rt.Trace.Mark(0, "fault", "node crashed", trace.A("node", n.Name))
			}
			n.Fail()
			if restart > 0 {
				rt.Eng.After(restart, func() {
					if rt.Trace != nil {
						rt.Trace.Mark(0, "fault", "node restarted", trace.A("node", n.Name))
					}
					n.Restart()
				})
			}
		})
	}
	return nil
}
