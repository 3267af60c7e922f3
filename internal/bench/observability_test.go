package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"mrapid/internal/report"
	"mrapid/internal/trace"
	"mrapid/internal/workloads"
)

// tracedRun executes one small observed WordCount under a variant and
// returns the trace, the root span, and the job's elapsed virtual nanos.
func tracedRun(t *testing.T, v Variant) (*trace.Log, trace.SpanID, int64) {
	t.Helper()
	setup := A3x4()
	env, err := NewEnv(setup, v)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := env.EnableObservability(0)
	names, err := workloads.GenerateWordCountInput(env.DFS, env.Cluster, "/in/obs", workloads.WordCountConfig{
		Files: 2, FileBytes: 2 << 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := workloads.WordCountSpec("wordcount-obs", names, "/out/obs", false)
	res, err := env.Run(v, spec)
	if err != nil {
		t.Fatal(err)
	}
	return tr, res.Profile.Span, int64(res.Profile.Elapsed())
}

// TestReportSumsToJobElapsed is the PR's acceptance gate: for every
// execution mode, a single traced run yields a span tree whose analyzer
// report partitions the job's wall-clock virtual time exactly — phase
// durations sum to the profiler's elapsed time with zero error.
func TestReportSumsToJobElapsed(t *testing.T) {
	t.Parallel()
	for _, v := range StandardVariants() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			tr, root, elapsed := tracedRun(t, v)
			if root == 0 {
				t.Fatal("job profile has no root span")
			}
			rep, err := report.Analyze(tr, root)
			if err != nil {
				t.Fatal(err)
			}
			if rep.TotalNanos != elapsed {
				t.Fatalf("report window %d ns != job elapsed %d ns", rep.TotalNanos, elapsed)
			}
			var sum int64
			for _, p := range rep.Phases {
				sum += p.Nanos
			}
			if sum != rep.TotalNanos {
				t.Fatalf("phase sum %d != total %d (report: %+v)", sum, rep.TotalNanos, rep.Phases)
			}
			if rep.Open != 0 {
				t.Fatalf("%d spans left open on a clean run", rep.Open)
			}
		})
	}
}

// TestTraceCoversLifecycle asserts the span tree records the full job
// lifecycle the issue names: AM allocation, container scheduling and
// launch, and the map/shuffle/reduce sub-phases.
func TestTraceCoversLifecycle(t *testing.T) {
	t.Parallel()
	tr, root, _ := tracedRun(t, VariantHadoop())
	phases := map[string]int{}
	names := map[string]bool{}
	for _, s := range tr.Subtree(root) {
		phases[s.Phase]++
		names[s.Name] = true
	}
	for _, want := range []string{"submit", "am", "schedule", "launch", "map", "shuffle", "commit", "reduce", "notify"} {
		if phases[want] == 0 {
			t.Errorf("no %q spans in the job tree (phases: %v)", want, phases)
		}
	}
	for _, want := range []string{"am-startup", "map-0", "read", "compute", "reduce-0", "poll wait"} {
		if !names[want] {
			t.Errorf("no %q span in the job tree", want)
		}
	}
	// The pooled D+ path must mark its AM phase as a pool hit instead.
	trD, rootD, _ := tracedRun(t, VariantDPlus())
	foundDispatch := false
	for _, s := range trD.Subtree(rootD) {
		if s.Name == "am-dispatch" {
			foundDispatch = true
			for _, a := range s.Attrs {
				if a.Key == "pool_hit" && a.Value != "true" {
					t.Errorf("am-dispatch pool_hit = %q", a.Value)
				}
			}
		}
	}
	if !foundDispatch {
		t.Error("D+ run has no am-dispatch span")
	}
}

// exportAll renders every observability artifact of one traced run to
// bytes: the Chrome trace, the JSON summary, and the text report.
func exportAll(t *testing.T, v Variant) []byte {
	t.Helper()
	setup := A3x4()
	env, err := NewEnv(setup, v)
	if err != nil {
		t.Fatal(err)
	}
	tr, reg := env.EnableObservability(0)
	names, err := workloads.GenerateWordCountInput(env.DFS, env.Cluster, "/in/det", workloads.WordCountConfig{
		Files: 2, FileBytes: 1 << 20, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := workloads.WordCountSpec("wordcount-det", names, "/out/det", false)
	res, err := env.Run(v, spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := report.Analyze(tr, res.Profile.Span)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteJSON(&b, rep, reg); err != nil {
		t.Fatal(err)
	}
	if err := rep.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestObservabilityDeterministic runs the same seeded simulation twice and
// requires byte-identical trace, summary, and report output.
func TestObservabilityDeterministic(t *testing.T) {
	t.Parallel()
	a := exportAll(t, VariantDPlus())
	b := exportAll(t, VariantDPlus())
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed runs exported different observability bytes")
	}
}

// TestChromeExportOfRealRunIsValid loads a real run's Chrome export and
// checks the event stream is well-formed and covers the lifecycle.
func TestChromeExportOfRealRunIsValid(t *testing.T) {
	t.Parallel()
	setup := A3x4()
	v := VariantUPlus()
	env, err := NewEnv(setup, v)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := env.EnableObservability(0)
	names, err := workloads.GenerateWordCountInput(env.DFS, env.Cluster, "/in/cv", workloads.WordCountConfig{
		Files: 2, FileBytes: 1 << 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Run(v, workloads.WordCountSpec("wordcount-cv", names, "/out/cv", false)); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Phase string         `json:"ph"`
			Cat   string         `json:"cat"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &out); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	cats := map[string]int{}
	for _, e := range out.TraceEvents {
		if e.Phase == "X" {
			cats[e.Cat]++
		}
	}
	for _, want := range []string{"am", "map", "shuffle", "reduce"} {
		if cats[want] == 0 {
			t.Errorf("no complete events with cat %q (got %v)", want, cats)
		}
	}
}

// TestPhaseBreakdownFigure runs the registered "phases" experiment at a
// small scale and checks every mode's row partitions its total.
func TestPhaseBreakdownFigure(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-mode sweep")
	}
	fig, err := PhaseBreakdown(Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, Options{Scale: 0.05})
	if len(fig.Points) != 5 {
		t.Fatalf("points = %d, want 5 modes", len(fig.Points))
	}
	for _, p := range fig.Points {
		total := p.Seconds["total"]
		if total <= 0 {
			t.Fatalf("%s: total = %v", p.Label, total)
		}
		var sum float64
		for _, c := range phaseColumns {
			if c != "total" {
				sum += p.Seconds[c]
			}
		}
		if diff := sum - total; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("%s: phase sum %v != total %v", p.Label, sum, total)
		}
	}
}
