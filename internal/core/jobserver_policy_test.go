package core

import (
	"fmt"
	"testing"
	"time"

	"mrapid/internal/mapreduce"
	"mrapid/internal/profiler"
	"mrapid/internal/topology"
)

// Regression for the late-joining-tenant bug: tenantFor used to create
// unknown tenants with served=0, which under weighted-fair admission let a
// newcomer monopolize the window until it "caught up" with work it never
// submitted. A late joiner must start at the current minimum served/weight
// ratio (virtual-time join).
func TestTenantForVirtualTimeJoin(t *testing.T) {
	t.Parallel()
	s := &JobServer{tenants: map[string]*tenantState{
		"a": {name: "a", weight: 2, served: 10}, // ratio 5
		"b": {name: "b", weight: 1, served: 8},  // ratio 8
	}}
	nt := s.tenantFor("late")
	if nt.served != 5 { // min ratio 5 × weight 1
		t.Fatalf("late joiner served = %v, want 5 (virtual-time join at the minimum ratio)", nt.served)
	}
	// Weighted scaling: a heavier late joiner starts proportionally higher.
	s2 := &JobServer{tenants: map[string]*tenantState{
		"a": {name: "a", weight: 1, served: 6},
	}}
	heavy := &tenantState{}
	*heavy = *s2.tenantFor("h")
	if heavy.served != 6 {
		t.Fatalf("weight-1 joiner served = %v, want 6", heavy.served)
	}
	// The very first tenant still starts from zero.
	s3 := &JobServer{tenants: map[string]*tenantState{}}
	if first := s3.tenantFor("first"); first.served != 0 {
		t.Fatalf("first tenant served = %v, want 0", first.served)
	}
}

// A pre-decided speculative submission (recorded history winner) is charged
// one admission slot, not two: with a window of 2 (a pool of two AMs), two
// such jobs run concurrently where undecided races could not.
func TestJobServerPreDecidedSpeculativeCostsOne(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f, s := startJobServer(t, rt, 2, JobServerConfig{})
	names, input := stageInput(t, rt, 4, 1<<20)
	f.History.Record("wordcount", ModeUPlus, 10*time.Second)

	completed := 0
	inFlightAfterSubmit := 0
	rt.Eng.After(0, func() {
		for i := 0; i < 2; i++ {
			spec := testWCSpec(names, fmt.Sprintf("/out/%d", i))
			spec.Name = fmt.Sprintf("wc-%d", i)
			if err := s.Submit("", ModeSpeculative, spec, func(res *mapreduce.Result) {
				if res.Err != nil {
					t.Errorf("job failed: %v", res.Err)
				}
				completed++
				if completed == 2 {
					rt.RM.Stop()
				}
			}); err != nil {
				t.Errorf("submit: %v", err)
			}
		}
		inFlightAfterSubmit = s.InFlight()
	})
	rt.Eng.RunUntil(horizon)

	if completed != 2 {
		t.Fatalf("completed %d of 2", completed)
	}
	// Both cost-1 jobs fit the window-2 together; cost-2 races would have
	// serialized (in-flight 2 = one job).
	if inFlightAfterSubmit != 2 {
		t.Fatalf("in-flight after submits = %d, want both pre-decided jobs admitted", inFlightAfterSubmit)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after both admissions", s.Pending())
	}
	for i := 0; i < 2; i++ {
		verifyWC(t, rt, fmt.Sprintf("/out/%d", i), input)
	}
}

// inFlightAtAdmission records the window's charge right after each admission.
type inFlightAtAdmission struct {
	s  *JobServer
	at []int
}

func (o *inFlightAtAdmission) JobAdmitted(string, time.Duration) { o.at = append(o.at, o.s.InFlight()) }
func (o *inFlightAtAdmission) JobCompleted(string, bool)         {}

// The admission cost is decided when the job is admitted, not when it is
// queued. Two same-key speculative jobs arrive together on a pool of 2: the
// first races and holds the whole window, the second waits, then runs alone
// from the history the race recorded — and is charged one slot for it.
func TestJobServerChargesTheDecisionAtAdmission(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	_, s := startJobServer(t, rt, 2, JobServerConfig{})
	obs := &inFlightAtAdmission{s: s}
	s.Observer = obs
	names, input := stageInput(t, rt, 2, 256<<10)

	results := make([]*mapreduce.Result, 2)
	rt.Eng.After(0, func() {
		for i := range results {
			spec := testWCSpec(names, fmt.Sprintf("/out/%d", i))
			spec.Name = fmt.Sprintf("wc-%d", i)
			if err := s.Submit("", ModeSpeculative, spec, func(res *mapreduce.Result) {
				results[i] = res
				if results[0] != nil && results[1] != nil {
					rt.RM.Stop()
				}
			}); err != nil {
				t.Errorf("submit: %v", err)
			}
		}
	})
	rt.Eng.RunUntil(horizon)

	for i, res := range results {
		if res == nil || res.Err != nil {
			t.Fatalf("job %d = %+v", i, res)
		}
		verifyWC(t, rt, fmt.Sprintf("/out/%d", i), input)
	}
	if got := []string{results[0].Profile.Decision.Source, results[1].Profile.Decision.Source}; got[0] != profiler.ByRace || got[1] != profiler.ByHistory {
		t.Fatalf("decided by %v, want the race then history", got)
	}
	if len(obs.at) != 2 || obs.at[0] != 2 || obs.at[1] != 1 {
		t.Fatalf("in flight after each admission = %v, want [2 1]: the history run holds one AM", obs.at)
	}
}
