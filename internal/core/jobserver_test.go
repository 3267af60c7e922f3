package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mrapid/internal/mapreduce"
	"mrapid/internal/metrics"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
	"mrapid/internal/yarn"
)

// startJobServer assembles runtime → framework → JobServer in the order a
// real deployment would: queues are configured before the pool starts, so the
// reserved AM containers are charged against the default queue.
func startJobServer(t *testing.T, rt *mapreduce.Runtime, poolSize int, cfg JobServerConfig) (*Framework, *JobServer) {
	t.Helper()
	f := NewFramework(rt, poolSize, FullUPlus())
	s, err := NewJobServer(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ready := false
	rt.Eng.After(0, func() { f.Start(func() { ready = true }) })
	rt.Eng.RunUntil(sim.Time(60 * time.Second))
	if !ready {
		t.Fatal("framework pool never came up")
	}
	return f, s
}

// TestJobServerMultiTenantFairness is the acceptance scenario: a burst of
// concurrent submissions across two tenants with capacity queues. Every job
// must complete correctly, per-queue usage must stay under the configured
// ceiling at every sample, the admission window must hold, and each job's
// queue wait must be visible as a span and a per-tenant histogram sample.
//
// Ten jobs is the smallest burst that fails both when the RM stops
// enforcing queue ceilings and when the JobServer stops enforcing its
// window; the detection is not monotonic in the burst size (six to eight
// and ten per tenant pass with the ceilings off), so resize it only after
// re-checking both.
func TestJobServerMultiTenantFairness(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	rt.Trace = trace.New(rt.Eng, 0)
	rt.Reg = metrics.New()
	rt.RM.Trace = rt.Trace
	_, s := startJobServer(t, rt, 3, JobServerConfig{
		Queues: []yarn.QueueConfig{
			{Name: "alice", Capacity: 0.4},
			{Name: "bob", Capacity: 0.3},
		},
		Policy: PolicyWeightedFair,
	})
	names, input := stageInput(t, rt, 4, 1<<20)

	const perTenant = 5 // 10 total
	total := 2 * perTenant
	completed := 0
	outputs := map[string]string{} // output path → tenant
	overCap := ""

	// Sample queue usage against the hard ceilings while jobs run.
	ceiling := func(q string, frac float64) topology.Resource {
		c := rt.RM.TotalCapacity()
		return topology.Resource{VCores: int(float64(c.VCores) * frac), MemoryMB: int(float64(c.MemoryMB) * frac)}
	}
	sampler := rt.Eng.Every(50*time.Millisecond, func() {
		for q, frac := range map[string]float64{"alice": 0.4, "bob": 0.3} {
			used, limit := rt.RM.QueueUsed(q), ceiling(q, frac)
			if !used.FitsIn(limit) && overCap == "" {
				overCap = fmt.Sprintf("queue %s used %+v over ceiling %+v at %s", q, used, limit, rt.Eng.Now())
			}
		}
		if s.InFlight() > 3+1 { // window = pool size 3; a cost-2 job may overhang by 1
			overCap = fmt.Sprintf("admission window breached: in-flight %d", s.InFlight())
		}
	})

	rt.Eng.After(0, func() {
		for i := 0; i < perTenant; i++ {
			for _, tenant := range []string{"alice", "bob"} {
				tenant := tenant
				out := fmt.Sprintf("/out/%s-%d", tenant, i)
				spec := testWCSpec(names, out)
				spec.Name = fmt.Sprintf("wc-%s-%d", tenant, i)
				mode := ModeDPlus
				if i%2 == 1 {
					mode = ModeUPlus
				}
				outputs[out] = tenant
				if err := s.Submit(tenant, mode, spec, func(res *mapreduce.Result) {
					if res.Err != nil {
						t.Errorf("job %s failed: %v", res.Spec.Name, res.Err)
					}
					completed++
					if completed == total {
						sampler.Stop()
						rt.RM.Stop()
					}
				}); err != nil {
					t.Errorf("submit %s: %v", spec.Name, err)
				}
			}
		}
	})
	rt.Eng.RunUntil(horizon)

	if overCap != "" {
		t.Fatal(overCap)
	}
	if completed != total {
		t.Fatalf("completed %d of %d jobs (pending %d, in-flight %d)", completed, total, s.Pending(), s.InFlight())
	}
	if s.Submitted != int64(total) || s.Completed != int64(total) || s.Pending() != 0 {
		t.Fatalf("server counters: submitted=%d completed=%d pending=%d", s.Submitted, s.Completed, s.Pending())
	}
	for out := range outputs {
		verifyWC(t, rt, out, input)
	}

	// Queue-wait must be visible per job: one ended jobserver span per
	// submission, and per-tenant wait histograms covering every job.
	spans := 0
	for _, sp := range rt.Trace.Spans() {
		if sp.Component == "jobserver" {
			spans++
			if !sp.Ended {
				t.Errorf("queue-wait span %q never ended", sp.Name)
			}
		}
	}
	if spans != total {
		t.Errorf("found %d jobserver queue-wait spans, want %d", spans, total)
	}
	hists := rt.Reg.Histograms()
	for _, tenant := range []string{"alice", "bob"} {
		h := hists[metrics.With("jobserver_queue_wait_seconds", "tenant", tenant)]
		if h == nil || h.Count != perTenant {
			t.Errorf("tenant %s queue-wait histogram missing or short: %+v", tenant, h)
		}
		ts := s.Tenant(tenant)
		if ts == nil || ts.Submitted != perTenant || ts.Completed != perTenant {
			t.Errorf("tenant %s stats wrong: %+v", tenant, ts)
		}
	}
}

// TestJobServerWeightedFairInterleaving checks that a burst from one tenant
// cannot starve another: with equal weights and a serialized window, the
// light tenant's jobs are admitted alternately with the heavy backlog instead
// of queueing behind all of it.
func TestJobServerWeightedFairInterleaving(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	// A pool of one AM serializes the window.
	_, s := startJobServer(t, rt, 1, JobServerConfig{
		Queues: []yarn.QueueConfig{
			{Name: "heavy", Capacity: 0.35},
			{Name: "light", Capacity: 0.35},
		},
		Policy: PolicyWeightedFair,
	})
	names, _ := stageInput(t, rt, 4, 1<<20)

	var order []string
	submit := func(tenant string, i int) {
		spec := testWCSpec(names, fmt.Sprintf("/out/%s-%d", tenant, i))
		spec.Name = fmt.Sprintf("wc-%s-%d", tenant, i)
		if err := s.Submit(tenant, ModeUPlus, spec, func(res *mapreduce.Result) {
			if res.Err != nil {
				t.Errorf("job %s failed: %v", res.Spec.Name, res.Err)
			}
			order = append(order, tenant)
			if len(order) == 16 {
				rt.RM.Stop()
			}
		}); err != nil {
			t.Errorf("submit: %v", err)
		}
	}
	rt.Eng.After(0, func() {
		// The heavy burst lands first, then the light tenant shows up.
		for i := 0; i < 12; i++ {
			submit("heavy", i)
		}
		for i := 0; i < 4; i++ {
			submit("light", i)
		}
	})
	rt.Eng.RunUntil(horizon)

	if len(order) != 16 {
		t.Fatalf("completed %d of 16 jobs", len(order))
	}
	// All four light jobs must finish within the first half of the run; FIFO
	// would hold them behind the entire heavy backlog.
	lightDone := 0
	for _, tenant := range order[:8] {
		if tenant == "light" {
			lightDone++
		}
	}
	if lightDone != 4 {
		t.Errorf("only %d/4 light jobs completed in the first 8 finishes (order %v)", lightDone, order)
	}
}

// TestJobServerSubmitValidation covers the submission boundary: unknown
// tenant queues, unroutable modes, and a pool too small for speculation are
// rejected with errors (never panics) before anything reaches the RM.
func TestJobServerSubmitValidation(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	rt.Reg = metrics.New()
	_, s := startJobServer(t, rt, 1, JobServerConfig{
		Queues: []yarn.QueueConfig{{Name: "alice", Capacity: 0.5}},
	})
	names, _ := stageInput(t, rt, 2, 1<<18)
	spec := testWCSpec(names, "/out")
	noop := func(*mapreduce.Result) {}

	if err := s.Submit("mallory", ModeDPlus, spec, noop); err == nil || !strings.Contains(err.Error(), "unknown tenant queue") {
		t.Errorf("unknown tenant: err = %v", err)
	}
	if s.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", s.Rejected)
	}
	if got := rt.Reg.Get(metrics.With("jobserver_rejected_total", "tenant", "mallory")); got != 1 {
		t.Errorf("rejected metric = %d, want 1", got)
	}
	if err := s.Submit("alice", ModeKind("warp"), spec, noop); err == nil || !strings.Contains(err.Error(), "not a single execution mode") {
		t.Errorf("bogus mode: err = %v", err)
	}
	if err := s.Submit("alice", ModeSpeculative, spec, noop); err == nil || !strings.Contains(err.Error(), "pool of at least 2") {
		t.Errorf("speculative on pool of 1: err = %v", err)
	}
	if s.Submitted != 0 {
		t.Errorf("rejected submissions were counted: Submitted = %d", s.Submitted)
	}

	// The default queue was added automatically, so tenantless submission
	// works and lands in it.
	if !rt.RM.ValidQueue("") {
		t.Fatal("default queue missing after auto-configuration")
	}
	done := false
	rt.Eng.After(0, func() {
		if err := s.Submit("", ModeUPlus, spec, func(res *mapreduce.Result) {
			if res.Err != nil {
				t.Errorf("default-queue job failed: %v", res.Err)
			}
			done = true
			rt.RM.Stop()
		}); err != nil {
			t.Errorf("default-queue submit: %v", err)
		}
	})
	rt.Eng.RunUntil(horizon)
	if !done {
		t.Fatal("default-queue job never completed")
	}
}

// TestNewJobServerConfig covers the constructor's rejection paths.
func TestNewJobServerConfig(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f := NewFramework(rt, 1, FullUPlus())

	if _, err := NewJobServer(f, JobServerConfig{Policy: AdmissionPolicy("lifo")}); err == nil {
		t.Error("unknown policy accepted")
	}
	// Tenants claiming the whole cluster leave no room for the default queue
	// the AM pool needs.
	if _, err := NewJobServer(f, JobServerConfig{
		Queues: []yarn.QueueConfig{{Name: "a", Capacity: 0.5}, {Name: "b", Capacity: 0.5}},
	}); err == nil || !strings.Contains(err.Error(), "default") {
		t.Errorf("full-capacity tenants: err = %v", err)
	}
	// An invalid queue set is refused by ConfigureQueues through the same
	// constructor path.
	if _, err := NewJobServer(f, JobServerConfig{
		Queues: []yarn.QueueConfig{{Name: "a", Capacity: 1.5}},
	}); err == nil {
		t.Error("capacity > 1 accepted")
	}
	// A declared default queue is used as-is (capacities may then sum to 1).
	s, err := NewJobServer(f, JobServerConfig{
		Queues: []yarn.QueueConfig{
			{Name: yarn.DefaultQueue, Capacity: 0.2},
			{Name: "a", Capacity: 0.8},
		},
	})
	if err != nil {
		t.Fatalf("explicit default queue rejected: %v", err)
	}
	if !rt.RM.ValidQueue("a") || !rt.RM.ValidQueue("") {
		t.Error("configured queues not installed")
	}
	if s.window != 1 {
		t.Errorf("derived window = %d, want pool size 1", s.window)
	}
}
