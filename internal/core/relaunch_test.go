package core

import (
	"testing"

	"mrapid/internal/mapreduce"
	"mrapid/internal/report"
	"mrapid/internal/sim"
	"mrapid/internal/trace"
)

// pooledRun runs a 12×1 MiB word count through the framework on a pool of 3
// with a trace attached. arm, when non-nil, scripts a fault once the pool is
// up. It returns the result, the instant the client heard of it, the runtime,
// the framework and the input bytes.
func pooledRun(t *testing.T, mode ModeKind, arm func(*mapreduce.Runtime, *Framework)) (*mapreduce.Result, sim.Time, *mapreduce.Runtime, *Framework, []byte) {
	t.Helper()
	rt := chaosRuntime(t, 1)
	rt.Trace = trace.New(rt.Eng, 0)
	f := startFramework(t, rt, 3)
	names, all := stageInput(t, rt, 12, 1<<20)
	if arm != nil {
		arm(rt, f)
	}
	var res *mapreduce.Result
	var heardAt sim.Time
	rt.Eng.After(0, func() {
		f.Submit(mode, testWCSpec(names, "/out"), func(r *mapreduce.Result) {
			res, heardAt = r, rt.Eng.Now()
			rt.RM.Stop()
		})
	})
	rt.Eng.RunUntil(horizon)
	if res == nil {
		t.Fatal("job never completed")
	}
	if res.Err != nil {
		t.Fatalf("job failed: %v", res.Err)
	}
	return res, heardAt, rt, f, all
}

// A pooled job that loses its AM's machine halfway through the map phase is
// relaunched on a fresh pooled AM — and is still one job: its profile starts
// at the first hand-off to the proxy, not at the relaunch, so what it reports
// is what the client waited for.
func TestRelaunchedPooledJobIsMeasuredFromItsFirstAttempt(t *testing.T) {
	t.Parallel()
	for _, mode := range []ModeKind{ModeUPlus, ModeDPlus} {
		t.Run(string(mode), func(t *testing.T) {
			clean, _, _, _, _ := pooledRun(t, mode, nil)
			_, crashAt := nodeCrashFor(t, true, clean)
			res, heardAt, rt, f, all := pooledRun(t, mode, func(rt *mapreduce.Runtime, f *Framework) {
				// The first idle AM serves the job.
				rt.Eng.At(crashAt, f.Pool.ams[0].Node.Fail)
			})
			verifyWC(t, rt, "/out", all)
			if f.Pool.Lost != 1 || f.Pool.Dispatches != 2 {
				t.Fatalf("pool lost %d AMs over %d dispatches, want 1 over 2: the job was not relaunched", f.Pool.Lost, f.Pool.Dispatches)
			}
			p := res.Profile
			if p.SubmittedAt >= crashAt {
				t.Errorf("SubmittedAt = %s, after the crash at %s: measured from the relaunch", p.SubmittedAt, crashAt)
			}

			// The profile's span covers [SubmittedAt, DoneAt] under the job's
			// root, next to the one staging upload.
			span := rt.Trace.Span(p.Span)
			if span == nil || !span.Ended || span.Start != p.SubmittedAt || span.End != p.DoneAt {
				t.Fatalf("profile span %+v does not cover [%s, %s]", span, p.SubmittedAt, p.DoneAt)
			}
			root := rt.Trace.Span(span.Parent)
			if root == nil || root.Parent != 0 || root.End != span.End {
				t.Fatalf("profile span's parent %+v is not the job's root", root)
			}
			var upload sim.Time
			for _, sp := range rt.Trace.Children(root.ID) {
				if sp.Name == "upload artifacts" {
					upload += sp.Duration(heardAt)
				}
			}
			if observed := heardAt - root.Start; sim.Time(p.Elapsed()) != observed-upload {
				t.Errorf("Elapsed = %s, want the client-observed %s less the %s upload", p.Elapsed(), observed, upload)
			}
			rep, err := report.Analyze(rt.Trace, p.Span)
			if err != nil {
				t.Fatal(err)
			}
			var phases int64
			for _, ph := range rep.Phases {
				phases += ph.Nanos
			}
			if phases != int64(p.Elapsed()) {
				t.Errorf("report phases sum to %d ns, want Elapsed = %d ns", phases, int64(p.Elapsed()))
			}

			// What the lost attempt finished stays on record.
			first := 0
			for _, tp := range p.Tasks {
				if tp.Ended <= crashAt {
					first++
				}
			}
			if first == 0 || len(p.Tasks) <= len(clean.Profile.Tasks) {
				t.Errorf("%d tasks on record, %d from before the crash; the clean run has %d", len(p.Tasks), first, len(clean.Profile.Tasks))
			}
		})
	}
}
