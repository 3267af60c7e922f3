package yarn

import (
	"fmt"
	"slices"

	"mrapid/internal/topology"
)

// CheckView recomputes the Cluster Resource view from first principles —
// every tracker's Live flag and the live-container table — and reports the
// first place the incrementally maintained values disagree. It is the
// reference the view is tested against (the property test runs it after
// every step, the chaos suites at teardown); nothing on a scheduling path
// calls it.
func (rm *RM) CheckView() error {
	var live []*NodeTracker
	var capacity, used topology.Resource
	onNode := make(map[*topology.Node]topology.Resource, len(rm.trackers))
	inQueue := make(map[*queue]topology.Resource, len(rm.queues))
	for _, c := range rm.live {
		onNode[c.Node] = onNode[c.Node].Add(c.Resource)
		if rm.queues != nil {
			q := rm.queueOf(c.App)
			inQueue[q] = inQueue[q].Add(c.Resource)
		}
	}
	for _, nt := range rm.trackers {
		if got := onNode[nt.Node]; nt.Used() != got {
			return fmt.Errorf("yarn: node %s has %v allocated but hosts containers worth %v", nt.Node.Name, nt.Used(), got)
		}
		if nt.Live {
			live = append(live, nt)
			capacity = capacity.Add(nt.Cap)
			used = used.Add(nt.Used())
		}
	}
	if !slices.Equal(rm.Trackers(), live) {
		return fmt.Errorf("yarn: live list has %d nodes, the Live flags say %d (or another order)", len(rm.Trackers()), len(live))
	}
	if rm.TotalCapacity() != capacity {
		return fmt.Errorf("yarn: TotalCapacity %v, live nodes sum to %v", rm.TotalCapacity(), capacity)
	}
	if rm.TotalUsed() != used {
		return fmt.Errorf("yarn: TotalUsed %v, live nodes sum to %v", rm.TotalUsed(), used)
	}
	for name, q := range rm.queues {
		limit := q.limitOf(capacity)
		if q.limit != limit {
			return fmt.Errorf("yarn: queue %q limit %v, %v of %v is %v", name, q.limit, q.frac, capacity, limit)
		}
		if q.used != inQueue[q] {
			return fmt.Errorf("yarn: queue %q used %v, its live containers sum to %v", name, q.used, inQueue[q])
		}
	}
	return nil
}
