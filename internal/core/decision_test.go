package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"mrapid/internal/mapreduce"
	"mrapid/internal/memo"
	"mrapid/internal/profiler"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
)

// TestDecisionRecordOnBothRoutes runs one job per way a mode can be come by
// — fixed by the submitter, raced, pre-decided from the exact history,
// served from the memo cache — through Framework.Submit directly and through
// JobServer.Submit, and checks that the decision record on the result's
// profile says so on both routes, agrees with Result.Mode, carries estimates
// exactly where the decision maker computed them, and puts a race's verdict
// inside the job.
func TestDecisionRecordOnBothRoutes(t *testing.T) {
	t.Parallel()
	for _, route := range []string{"Framework.Submit", "JobServer.Submit"} {
		t.Run(route, func(t *testing.T) {
			rt, reg := memoRuntime(t)
			rt.Trace = trace.New(rt.Eng, 0)
			f := startFramework(t, rt, 3)
			f.Memo = memo.New(reg, rt.Cluster.Workers(), memo.Config{})
			srv, err := NewJobServer(f, JobServerConfig{})
			if err != nil {
				t.Fatal(err)
			}
			names, _ := stageInput(t, rt, 4, 256<<10)

			// Every job is the same program over the same bytes; key is its
			// exact-history identity and content its cache identity, so each
			// row meets exactly the records it should.
			jobs := 0
			run := func(kind ModeKind, key string, content int) *mapreduce.Result {
				t.Helper()
				jobs++
				spec := testWCSpec(names, fmt.Sprintf("/out/%d", jobs))
				spec.Name = fmt.Sprintf("wc-%d", jobs)
				spec.JobKey, spec.ClosureSig = key, fmt.Sprintf("wc-%d", content)
				var res *mapreduce.Result
				done := func(r *mapreduce.Result) { res = r }
				rt.Eng.After(0, func() {
					if route == "Framework.Submit" {
						f.Submit(kind, spec, done)
					} else if err := srv.Submit("", kind, spec, done); err != nil {
						t.Error(err)
					}
				})
				rt.Eng.RunUntil(rt.Eng.Now().Add(10 * time.Minute))
				if res == nil || res.Err != nil {
					t.Fatalf("job %d (%s, key %s) = %+v", jobs, kind, key, res)
				}
				return res
			}

			check := func(row string, res *mapreduce.Result, source string, modes ...ModeKind) {
				t.Helper()
				p, d := res.Profile, res.Profile.Decision
				if d.Source != source {
					t.Fatalf("%s: decided by %q, want %q", row, d.Source, source)
				}
				if res.Mode != p.Mode || !slices.Contains(modes, ModeKind(res.Mode)) {
					t.Errorf("%s: Result.Mode %q, profile mode %q, want one of %v", row, res.Mode, p.Mode, modes)
				}
				raced := source == profiler.ByRace
				if (d.EstimateD != 0) != raced || (d.EstimateU != 0) != raced {
					t.Errorf("%s: estimates D=%v U=%v", row, d.EstimateD, d.EstimateU)
				}
				if source == profiler.ByRace {
					if d.At < p.SubmittedAt || d.At > p.DoneAt {
						t.Errorf("%s: verdict at %s outside the job [%s, %s]", row, d.At, p.SubmittedAt, p.DoneAt)
					}
					if root := rt.Trace.Span(d.Span); root == nil || root.Parent != 0 || rt.Trace.Span(p.Span).Parent != d.Span {
						t.Errorf("%s: race span %d is not the root over the winner's job span %d", row, d.Span, p.Span)
					}
				} else if d.At != 0 || d.Span != 0 {
					t.Errorf("%s: verdict instant %s and race span %d without a race", row, d.At, d.Span)
				}
				want := p.Span
				if source == profiler.ByRace {
					want = d.Span
				}
				if p.Root() != want {
					t.Errorf("%s: Root() = %d with race span %d and job span %d", row, p.Root(), d.Span, p.Span)
				}
			}

			check("fixed D+", run(ModeDPlus, "fixed", 1), "", ModeDPlus)
			raced := run(ModeSpeculative, "k", 2)
			check("raced", raced, profiler.ByRace, ModeDPlus, ModeUPlus)
			hist := run(ModeSpeculative, "k", 3)
			check("history", hist, profiler.ByHistory, ModeKind(raced.Mode))
			// The raced job's program and bytes under a fresh key race again:
			// only the job key's own record pre-decides, never its shape.
			check("fresh key", run(ModeSpeculative, "fresh", 4), profiler.ByRace, ModeDPlus, ModeUPlus)
			// The raced job's content again, under a key with no history.
			check("memo", run(ModeSpeculative, "never-seen", 2), profiler.ByMemo, ModeMemo)
			check("memo, fixed mode", run(ModeUPlus, "never-seen", 2), profiler.ByMemo, ModeMemo)
		})
	}
}

// TestRaceEstimatesMatchInputsFromProfile pins the race to the one assembly
// of the Eq. 2/3 inputs: a raced job's recorded estimates must be exactly
// Equations 3 and 2 over InputsFromProfile of the first completed map's
// sample (compute time, input bytes, output bytes) with the cluster's n^m,
// n^c and n_u^m. The four inputs differ in size, so every map is a different
// sample and the first one is the map that ended at the verdict instant; four
// maps fill the A3's one U+ wave exactly, so a miscounted n^m moves Eq. 2.
func TestRaceEstimatesMatchInputsFromProfile(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f := startFramework(t, rt, 3)
	var names []string
	for i, lines := range []int{1000, 2000, 3000, 4000} {
		name := fmt.Sprintf("/in/sized-%d", i)
		data := bytes.Repeat([]byte("lorem ipsum dolor sit amet\n"), lines)
		if _, err := rt.DFS.PutInstant(name, data, rt.Cluster.Workers()[i]); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	var res *mapreduce.Result
	rt.Eng.After(0, func() {
		f.Submit(ModeSpeculative, testWCSpec(names, "/out/raced"), func(r *mapreduce.Result) { res = r })
	})
	rt.Eng.RunUntil(rt.Eng.Now().Add(10 * time.Minute))
	if res == nil || res.Err != nil {
		t.Fatalf("raced job = %+v", res)
	}
	d := res.Profile.Decision
	if d.Source != profiler.ByRace || d.EstimateD <= 0 || d.EstimateU <= 0 {
		t.Fatalf("decision = %+v, want a race with estimates", d)
	}
	var first *profiler.TaskProfile
	for _, tp := range res.Profile.Tasks {
		if tp.Kind == profiler.MapTask && !tp.Failed && tp.Ended == d.At {
			if first != nil {
				t.Fatalf("maps %d and %d both ended at the verdict instant %s", first.Index, tp.Index, d.At)
			}
			first = tp
		}
	}
	if first == nil {
		t.Fatalf("no map of the winner (%s) ended at the verdict instant %s", res.Mode, d.At)
	}
	in := InputsFromProfile(
		profiler.Summary{AvgMapCPU: first.ComputeDur, AvgIn: first.InputBytes, AvgOut: first.OutputBytes},
		len(names), 4*topology.A3.MaxContainers(), FullUPlus().MapsPerWave(rt.Cluster.Workers()[0]),
		topology.A3, rt.Params)
	if d.EstimateD != EstimateDPlus(in) || d.EstimateU != EstimateUPlus(in) {
		t.Errorf("race estimates D+=%s U+=%s, the one assembly D+=%s U+=%s",
			d.EstimateD, d.EstimateU, EstimateDPlus(in), EstimateUPlus(in))
	}
}
