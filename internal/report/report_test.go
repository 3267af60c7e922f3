package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mrapid/internal/metrics"
	"mrapid/internal/sim"
	"mrapid/internal/trace"
)

func at(s float64) sim.Time { return sim.Time(s * float64(time.Second)) }

// buildTree lays out a synthetic job with known phase intervals:
//
//	root      [0, 10]
//	am        [0, 2]
//	schedule  [2, 2.5]
//	launch    [2.5, 3]
//	map       [3, 7]
//	shuffle   [6, 8]    (overlaps map 6–7: map wins by priority)
//	reduce    [8, 9.5]
//	notify    [9.5, 10]
func buildTree(t *testing.T) (*trace.Log, trace.SpanID) {
	t.Helper()
	eng := sim.NewEngine()
	l := trace.New(eng, 0)
	var root trace.SpanID
	add := func(s, e float64, component, name, phase string) {
		eng.After(time.Duration(e*float64(time.Second)), func() {
			l.SpanSince(root, component, name, phase, at(s))
		})
	}
	eng.After(0, func() {
		root = l.StartSpan(0, "job", "wordcount", "", trace.A("mode", "dplus"))
	})
	add(0, 2, "am", "am-startup", "am")
	add(2, 2.5, "rm", "alloc map-0", "schedule")
	add(2.5, 3, "nm/node-01", "launch map-0", "launch")
	add(3, 7, "task/node-01", "map-0", "map")
	add(6, 8, "task/node-02", "fetch map-0.p0", "shuffle")
	add(8, 9.5, "task/node-02", "reduce-0", "reduce")
	add(9.5, 10, "client", "poll wait", "notify")
	eng.After(10*time.Second, func() { l.EndSpan(root) })
	eng.Run()
	return l, root
}

func TestAnalyzePartitionsExactly(t *testing.T) {
	l, root := buildTree(t)
	rep, err := Analyze(l, root)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"am": 2, "schedule": 0.5, "launch": 0.5, "map": 4,
		"shuffle": 1, "reduce": 1.5, "notify": 0.5,
	}
	if len(rep.Phases) != len(want) {
		t.Fatalf("phases = %+v, want %d entries", rep.Phases, len(want))
	}
	var sum int64
	for _, p := range rep.Phases {
		if p.Seconds != want[p.Phase] {
			t.Errorf("%s = %vs, want %vs", p.Phase, p.Seconds, want[p.Phase])
		}
		sum += p.Nanos
	}
	if sum != rep.TotalNanos {
		t.Fatalf("phase sum %d != total %d", sum, rep.TotalNanos)
	}
	if rep.Total != 10 || rep.Mode != "dplus" || rep.Job != "wordcount" {
		t.Fatalf("report header = %+v", rep)
	}
	// Rendering order is the pipeline order.
	order := make([]string, len(rep.Phases))
	for i, p := range rep.Phases {
		order[i] = p.Phase
	}
	wantOrder := []string{"am", "schedule", "launch", "map", "shuffle", "reduce", "notify"}
	for i := range wantOrder {
		if order[i] != wantOrder[i] {
			t.Fatalf("order = %v, want %v", order, wantOrder)
		}
	}
}

func TestAnalyzeChargesGapsToOther(t *testing.T) {
	eng := sim.NewEngine()
	l := trace.New(eng, 0)
	var root trace.SpanID
	eng.After(0, func() { root = l.StartSpan(0, "job", "j", "") })
	eng.After(4*time.Second, func() {
		l.SpanSince(root, "task/n", "map-0", "map", at(1)) // [1,4]
	})
	eng.After(6*time.Second, func() { l.EndSpan(root) })
	eng.Run()
	rep, err := Analyze(l, root)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, p := range rep.Phases {
		got[p.Phase] = p.Seconds
	}
	// Uncovered [0,1] and [4,6] → 3 s of "other".
	if got["map"] != 3 || got[Other] != 3 {
		t.Fatalf("phases = %+v", rep.Phases)
	}
}

func TestAnalyzeOpenSpansChargeToNow(t *testing.T) {
	eng := sim.NewEngine()
	l := trace.New(eng, 0)
	var root trace.SpanID
	eng.After(0, func() {
		root = l.StartSpan(0, "job", "j", "")
		l.StartSpan(root, "task/n", "map-0", "map") // abandoned, never ends
	})
	eng.After(5*time.Second, func() {})
	eng.Run()
	rep, err := Analyze(l, root)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Open != 2 || rep.Total != 5 {
		t.Fatalf("open=%d total=%v", rep.Open, rep.Total)
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Phase != "map" || rep.Phases[0].Seconds != 5 {
		t.Fatalf("phases = %+v", rep.Phases)
	}
}

func TestAnalyzeUnknownRoot(t *testing.T) {
	eng := sim.NewEngine()
	l := trace.New(eng, 0)
	if _, err := Analyze(l, 7); err == nil {
		t.Fatal("expected error for unknown root span")
	}
}

func TestHeadlineAndRender(t *testing.T) {
	l, root := buildTree(t)
	rep, err := Analyze(l, root)
	if err != nil {
		t.Fatal(err)
	}
	h := rep.Headline()
	if !strings.Contains(h, "wordcount (dplus) took 10.000s:") ||
		!strings.Contains(h, "2.000s am") || !strings.Contains(h, "4.000s map") {
		t.Fatalf("Headline = %q", h)
	}
	var b bytes.Buffer
	if err := rep.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "map") || !strings.Contains(out, "40.0%") {
		t.Fatalf("Render = %q", out)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	l, root := buildTree(t)
	rep, err := Analyze(l, root)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	reg.CounterHandle("yarn_allocations_total").Inc()
	reg.Define("d", metrics.DefaultDurationBuckets)
	reg.HistogramHandle("d").Observe(0.5)
	var b bytes.Buffer
	if err := WriteJSON(&b, rep, reg); err != nil {
		t.Fatal(err)
	}
	var got Summary
	if err := json.Unmarshal(b.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Report == nil || got.Report.TotalNanos != rep.TotalNanos {
		t.Fatalf("report lost in round trip: %+v", got.Report)
	}
	if got.Counters["yarn_allocations_total"] != 1 {
		t.Fatalf("counters = %+v", got.Counters)
	}
	if h := got.Histograms["d"]; h == nil || h.Count != 1 {
		t.Fatalf("histograms = %+v", got.Histograms)
	}
	// WriteJSON must tolerate a nil registry (trace-only runs).
	if err := WriteJSON(&bytes.Buffer{}, rep, nil); err != nil {
		t.Fatal(err)
	}
}
