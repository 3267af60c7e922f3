package yarn

import (
	"fmt"

	"mrapid/internal/topology"
)

// QueueConfig sizes one tenant queue as a fraction of cluster capacity.
// The paper's background section describes this CapacityScheduler feature:
// "allows multiple tenants to share a large cluster and allocate resources
// under constraints of specified capacities for each user."
type QueueConfig struct {
	Name     string
	Capacity float64 // fraction of cluster capacity, (0, 1]
}

// DefaultQueue is where apps land when no queue is named, or when queues
// are not configured at all.
const DefaultQueue = "default"

// queue tracks one tenant's usage against its capacity ceiling. This models
// hard capacities (CapacityScheduler with maximum-capacity equal to
// capacity); elastic over-capacity borrowing is out of scope for the
// paper's experiments, which run a single tenant.
type queue struct {
	frac float64
	// limit is frac of the live cluster capacity, each dimension truncated
	// to an integer. rebuildView recomputes it when membership changes; a
	// grant or release moves only used.
	limit topology.Resource
	used  topology.Resource
}

func (q *queue) limitOf(total topology.Resource) topology.Resource {
	return topology.Resource{
		VCores:   int(float64(total.VCores) * q.frac),
		MemoryMB: int(float64(total.MemoryMB) * q.frac),
	}
}

// ConfigureQueues installs tenant queues on the RM. Capacities must each be
// in (0, 1] and sum to at most 1. Apps name their queue at creation;
// unknown queue names are rejected at submission time.
func (rm *RM) ConfigureQueues(configs []QueueConfig) error {
	if len(configs) == 0 {
		return fmt.Errorf("yarn: ConfigureQueues needs at least one queue")
	}
	queues := make(map[string]*queue, len(configs))
	var sum float64
	for _, c := range configs {
		if c.Name == "" {
			return fmt.Errorf("yarn: queue needs a name")
		}
		if c.Capacity <= 0 || c.Capacity > 1 {
			return fmt.Errorf("yarn: queue %q capacity %v outside (0,1]", c.Name, c.Capacity)
		}
		if _, dup := queues[c.Name]; dup {
			return fmt.Errorf("yarn: duplicate queue %q", c.Name)
		}
		queues[c.Name] = &queue{frac: c.Capacity}
		sum += c.Capacity
	}
	if sum > 1.0+1e-9 {
		return fmt.Errorf("yarn: queue capacities sum to %v > 1", sum)
	}
	rm.queues = queues
	rm.rebuildView()
	return nil
}

// queueOf resolves an app's queue; nil when the name is not configured.
func (rm *RM) queueOf(app *App) *queue {
	if app.Queue == "" {
		return rm.queues[DefaultQueue]
	}
	return rm.queues[app.Queue]
}

// QueueAllows reports whether granting r to the app would keep its queue
// within capacity. With no queues configured, everything is allowed.
func (rm *RM) QueueAllows(app *App, r topology.Resource) bool {
	if rm.queues == nil {
		return true
	}
	q := rm.queueOf(app)
	return q != nil && q.used.Add(r).FitsIn(q.limit)
}

// QueueUsed reports a queue's current allocation.
func (rm *RM) QueueUsed(name string) topology.Resource {
	if q := rm.queues[name]; q != nil {
		return q.used
	}
	return topology.Resource{}
}

// chargeQueue and creditQueue keep per-queue accounting in step with
// grants and releases.
func (rm *RM) chargeQueue(app *App, r topology.Resource) {
	if rm.queues != nil {
		q := rm.queueOf(app)
		q.used = q.used.Add(r)
	}
}

func (rm *RM) creditQueue(app *App, r topology.Resource) {
	if rm.queues != nil {
		q := rm.queueOf(app)
		q.used = q.used.Sub(r)
	}
}

// ValidQueue reports whether the queue name is submittable.
func (rm *RM) ValidQueue(name string) bool {
	if rm.queues == nil {
		return name == "" || name == DefaultQueue
	}
	if name == "" {
		name = DefaultQueue
	}
	_, ok := rm.queues[name]
	return ok
}
