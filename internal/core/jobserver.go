package core

import (
	"fmt"
	"math"
	"time"

	"mrapid/internal/mapreduce"
	"mrapid/internal/sim"
	"mrapid/internal/trace"
	"mrapid/internal/yarn"
)

// ModeSpeculative asks for the full MRapid workflow: the decision maker picks
// the mode, racing D+ and U+ when it has nothing to go on. It is not a row of
// the mode table: the race holds two pooled AMs, so admission charges it double.
const ModeSpeculative ModeKind = "speculative"

// AdmissionPolicy orders waiting jobs when the admission window has room.
type AdmissionPolicy string

const (
	// PolicyFIFO admits jobs strictly in arrival order, tenants interleaved.
	PolicyFIFO AdmissionPolicy = "fifo"

	// PolicyWeightedFair admits the next job of the tenant with the lowest
	// served-work-to-weight ratio (weight = the tenant queue's configured
	// capacity), so a burst from one tenant cannot starve the others. Within
	// a tenant, jobs stay FIFO.
	PolicyWeightedFair AdmissionPolicy = "wfair"
)

// JobServerConfig sizes the admission layer.
type JobServerConfig struct {
	// Queues configures tenant capacity queues on the RM (optional: with no
	// queues every tenant shares the default queue unconstrained). A
	// "default" queue is added automatically with the leftover capacity when
	// absent — the AM pool's own containers live there, so it must exist.
	Queues []yarn.QueueConfig

	// Policy selects the admission order; empty means PolicyFIFO.
	Policy AdmissionPolicy
}

// tenantState tracks one tenant's weighted-fair accounting and statistics.
type tenantState struct {
	name   string
	weight float64
	served float64 // admission cost admitted so far, for served/weight ordering

	Submitted int64
	Completed int64
}

// queuedJob is one submission waiting for admission.
type queuedJob struct {
	tenant *tenantState
	spec   *mapreduce.JobSpec
	mode   ModeKind
	cost   int // admission cost, decided by dispatch
	done   func(*mapreduce.Result)
	span   trace.SpanID
	enqAt  sim.Time

	admitAt sim.Time // when the job left the queue, for slot-second accounting
}

// AdmissionObserver receives the JobServer's per-tenant lifecycle signals.
// The flight recorder's SLO tracker hangs off this: queue waits feed the
// per-tenant p99 objective.
// Callbacks fire on the engine's virtual-clock goroutine, synchronously
// with the state change they describe.
type AdmissionObserver interface {
	// JobAdmitted fires when a job leaves the queue, with the time it waited.
	JobAdmitted(tenant string, wait time.Duration)

	// JobCompleted fires when a job finishes, before the submitter's own
	// callback. No job has a deadline, so missedDeadline is always false; the
	// parameter stays for the implementations outside this module.
	JobCompleted(tenant string, missedDeadline bool)
}

// JobServer is the long-running submission service in front of a Framework:
// clients Submit jobs tagged with a tenant, the server validates the tenant
// queue, applies backpressure against the admission window, orders waiting
// jobs by the configured policy, and hands each admitted job to
// Framework.Submit. Queue-wait is visible per job as a trace span and a
// per-tenant histogram.
type JobServer struct {
	fw      *Framework
	policy  AdmissionPolicy
	window  int
	pending []*queuedJob
	tenants map[string]*tenantState

	inFlight int // admission cost currently executing

	// Submitted, Completed, and Rejected count jobs over the server's
	// lifetime (Rejected = submissions refused for an unknown tenant queue).
	Submitted int64
	Completed int64
	Rejected  int64

	// SlotSeconds accumulates admission-cost × execution-time over completed
	// jobs: the cluster-slot consumption the speculative 2× dual-launch pays
	// for and a recorded winner or a memo hit avoids.
	SlotSeconds float64

	// Observer, when non-nil, is notified of admissions and completions
	// (see AdmissionObserver). Set it before submitting.
	Observer AdmissionObserver
}

// NewJobServer builds the admission layer over a started framework. Tenant
// queues from cfg are installed on the RM; an invalid queue configuration is
// returned as an error before anything is mutated on the RM.
func NewJobServer(fw *Framework, cfg JobServerConfig) (*JobServer, error) {
	if fw == nil {
		panic("core: NewJobServer needs a framework")
	}
	policy := cfg.Policy
	if policy == "" {
		policy = PolicyFIFO
	}
	if policy != PolicyFIFO && policy != PolicyWeightedFair {
		return nil, fmt.Errorf("core: unknown admission policy %q", policy)
	}
	s := &JobServer{
		fw:      fw,
		policy:  policy,
		window:  admissionWindow(fw),
		tenants: make(map[string]*tenantState),
	}
	if len(cfg.Queues) > 0 {
		queues, err := withDefaultQueue(cfg.Queues)
		if err != nil {
			return nil, err
		}
		if err := fw.RT.RM.ConfigureQueues(queues); err != nil {
			return nil, err
		}
		for _, q := range queues {
			s.tenants[q.Name] = &tenantState{name: q.Name, weight: q.Capacity}
		}
	}
	return s, nil
}

// admissionWindow caps the admission cost executing at once (a speculative
// race costs two — it holds two pooled AMs). One job per reserved AM keeps
// every admitted job on the warm path (more would just stack up inside
// Pool.Acquire), clamped by the cluster's container slots; a size-0 pool
// serializes the stock submissions it degrades to.
func admissionWindow(fw *Framework) int {
	w := fw.Pool.Size()
	if w == 0 {
		w = 1
	}
	if slots := mapreduce.ClusterContainerSlots(fw.RT); w > slots && slots > 0 {
		w = slots
	}
	return w
}

// withDefaultQueue ensures the configuration routes the AM pool somewhere:
// pooled AMs (and jobs with no tenant) live in the default queue, so when the
// tenants don't declare one it is added with the leftover capacity.
func withDefaultQueue(configs []yarn.QueueConfig) ([]yarn.QueueConfig, error) {
	var sum float64
	for _, c := range configs {
		if c.Name == yarn.DefaultQueue {
			return configs, nil
		}
		sum += c.Capacity
	}
	leftover := 1.0 - sum
	if leftover <= 1e-9 {
		return nil, fmt.Errorf("core: tenant capacities sum to %v; reserve headroom for the %q queue (the AM pool runs there) or declare it explicitly", sum, yarn.DefaultQueue)
	}
	out := make([]yarn.QueueConfig, len(configs), len(configs)+1)
	copy(out, configs)
	return append(out, yarn.QueueConfig{Name: yarn.DefaultQueue, Capacity: leftover}), nil
}

// tenantFor returns (creating on first use) the state for a tenant name. With
// queues configured, tenants were pre-created in NewJobServer and unknown
// names were already rejected by Submit; without queues, every name is a
// weight-1 tenant in the shared default queue.
func (s *JobServer) tenantFor(name string) *tenantState {
	t, ok := s.tenants[name]
	if !ok {
		t = &tenantState{name: name, weight: 1}
		// Virtual-time join: a tenant arriving after the others have been
		// served starts at the current minimum served/weight ratio, not at
		// zero — otherwise weighted-fair would hand the newcomer the whole
		// window until it "caught up" on work it never submitted.
		minRatio := math.Inf(1)
		for _, o := range s.tenants {
			if r := o.served / o.weight; r < minRatio {
				minRatio = r
			}
		}
		if !math.IsInf(minRatio, 1) {
			t.served = minRatio * t.weight
		}
		s.tenants[name] = t
	}
	return t
}

// Tenant reports a tenant's submission statistics (nil when never seen).
func (s *JobServer) Tenant(name string) *tenantState { return s.tenants[name] }

// Pending reports how many submissions are waiting for admission.
func (s *JobServer) Pending() int { return len(s.pending) }

// PendingByTenant counts the queued submissions per tenant — the queue-depth
// gauge the flight recorder samples. Tenants with nothing queued but known
// to the server (configured queues or past submitters) report 0, so their
// series do not wink out between bursts.
func (s *JobServer) PendingByTenant() map[string]int {
	out := make(map[string]int, len(s.tenants))
	for name := range s.tenants {
		out[name] = 0
	}
	for _, j := range s.pending {
		out[j.tenant.name]++
	}
	return out
}

// InFlight reports the admission cost currently executing.
func (s *JobServer) InFlight() int { return s.inFlight }

// Submit hands a job to the server on behalf of a tenant. The tenant names
// the target queue ("" = default); an unknown queue is rejected here, at the
// submission boundary, so the RM never sees an unroutable app. mode selects
// the execution path — one of the mode table's four single modes or
// ModeSpeculative. done fires with the job's result once it completes.
//
// Submission is asynchronous admission: the job may queue behind the
// admission window; its queue-wait is recorded as a span and a per-tenant
// histogram sample.
func (s *JobServer) Submit(tenant string, mode ModeKind, spec *mapreduce.JobSpec, done func(*mapreduce.Result)) error {
	return s.submit(tenant, tenant, mode, spec, done)
}

// SubmitAs is Submit with the fairness identity decoupled from the RM
// queue: admission accounting (weighted-fair ordering, queue-wait
// histograms, served-work ratios) runs under tenant, while the job's
// containers land in queue ("" = default). The query DAG runner uses this
// to give every query its own admission tenant — so one query's burst of
// ready stages cannot starve another query's — without requiring an RM
// capacity queue per query. The queue, not the tenant, is validated
// against the RM.
func (s *JobServer) SubmitAs(tenant, queue string, mode ModeKind, spec *mapreduce.JobSpec, done func(*mapreduce.Result)) error {
	return s.submit(tenant, queue, mode, spec, done)
}

// ReleaseTenant drops a logical tenant's fairness state once it has no
// pending or future submissions (a finished query). Dropping the state
// keeps the tenant map from growing one entry per query forever; a tenant
// with jobs still queued is left alone.
func (s *JobServer) ReleaseTenant(name string) {
	for _, j := range s.pending {
		if j.tenant.name == name {
			return
		}
	}
	delete(s.tenants, name)
}

func (s *JobServer) submit(tenant, queue string, mode ModeKind, spec *mapreduce.JobSpec, done func(*mapreduce.Result)) error {
	if spec == nil {
		panic("core: Submit needs a job spec")
	}
	if done == nil {
		panic("core: Submit needs a completion callback")
	}
	if !s.fw.RT.RM.ValidQueue(queue) {
		s.Rejected++
		s.fw.RT.Reg.CounterHandle("jobserver_rejected_total", "tenant", tenant).Inc()
		return fmt.Errorf("core: unknown tenant queue %q", queue)
	}
	if err := s.fw.runnable(mode); err != nil {
		return err
	}

	t := s.tenantFor(tenant)
	t.Submitted++
	s.Submitted++
	spec.Queue = queue
	j := &queuedJob{
		tenant: t,
		spec:   spec,
		mode:   mode,
		done:   done,
		enqAt:  s.fw.RT.Eng.Now(),
	}
	if s.fw.RT.Trace != nil {
		j.span = s.fw.RT.Trace.StartSpan(0, "jobserver", spec.Name+" queue-wait", "admit",
			trace.A("tenant", t.name), trace.A("mode", string(mode)))
	}
	s.fw.RT.Reg.CounterHandle("jobserver_submitted_total", "tenant", t.name, "mode", string(mode)).Inc()
	s.pending = append(s.pending, j)
	s.dispatch()
	return nil
}

// settle returns a finished job's admission cost to the window, admits
// whoever is next, and reports the result to the submitter.
func (s *JobServer) settle(j *queuedJob, res *mapreduce.Result) {
	now := s.fw.RT.Eng.Now()
	s.inFlight -= j.cost
	s.SlotSeconds += float64(j.cost) * now.Sub(j.admitAt).Seconds()
	j.tenant.Completed++
	s.Completed++
	if s.Observer != nil {
		s.Observer.JobCompleted(j.tenant.name, false)
	}
	s.dispatch()
	// The submitter's callback runs after dispatch so a chain of short jobs
	// can't observe an artificially empty window.
	s.fw.RT.Reg.CounterHandle("jobserver_completed_total", "tenant", j.tenant.name).Inc()
	j.done(res)
}

// dispatch admits waiting jobs while the window has room, in policy order.
func (s *JobServer) dispatch() {
	for len(s.pending) > 0 {
		idx := s.next()
		j := s.pending[idx]
		// Decided here, where the decision maker runs, not at enqueue: a
		// job queued behind the race that records its winner runs alone.
		// The race holds a pooled AM per mode; a recorded winner skipping
		// it launches one mode, so it costs one slot.
		j.cost = 1
		if j.mode == ModeSpeculative && !s.fw.PreDecided(j.spec) {
			j.cost = 2
		}
		if s.inFlight > 0 && s.inFlight+j.cost > s.window {
			return
		}
		s.pending = append(s.pending[:idx], s.pending[idx+1:]...)
		s.admit(j)
	}
}

// next picks the pending index to admit: FIFO takes the head; weighted-fair
// takes the earliest job of the most underserved tenant (lowest
// served/weight, ties broken by arrival order for determinism).
func (s *JobServer) next() int {
	if s.policy == PolicyFIFO {
		return 0
	}
	best := 0
	bestRatio := s.pending[0].tenant.served / s.pending[0].tenant.weight
	seen := map[*tenantState]bool{s.pending[0].tenant: true}
	for i := 1; i < len(s.pending); i++ {
		t := s.pending[i].tenant
		if seen[t] {
			continue // a tenant's own jobs stay FIFO
		}
		seen[t] = true
		if ratio := t.served / t.weight; ratio < bestRatio {
			best, bestRatio = i, ratio
		}
	}
	return best
}

// admit moves a job from the queue into execution: the wait span closes, the
// wait lands in the tenant's histogram, and the job runs through the
// framework.
func (s *JobServer) admit(j *queuedJob) {
	s.inFlight += j.cost
	j.admitAt = s.fw.RT.Eng.Now()
	j.tenant.served += float64(j.cost)
	wait := s.fw.RT.Eng.Now().Sub(j.enqAt)
	if j.span != 0 {
		s.fw.RT.Trace.EndSpan(j.span, trace.A("wait", wait.String()))
	}
	s.fw.RT.Reg.HistogramHandle("jobserver_queue_wait_seconds", "tenant", j.tenant.name).Observe(wait.Seconds())
	if s.Observer != nil {
		s.Observer.JobAdmitted(j.tenant.name, wait)
	}
	s.fw.Submit(j.mode, j.spec, func(res *mapreduce.Result) { s.settle(j, res) })
}
