package profiler

import (
	"strings"
	"testing"
	"time"

	"mrapid/internal/sim"
)

func mapTask(idx int, cpu time.Duration, in, out int64) *TaskProfile {
	return &TaskProfile{
		Kind: MapTask, Index: idx, Node: "node-01",
		Started:    sim.Time(time.Duration(idx) * time.Second),
		Ended:      sim.Time(time.Duration(idx)*time.Second + cpu),
		ComputeDur: cpu, InputBytes: in, OutputBytes: out,
	}
}

func TestTaskKindString(t *testing.T) {
	if MapTask.String() != "map" || ReduceTask.String() != "reduce" {
		t.Fatal("kind strings wrong")
	}
}

func TestTaskElapsed(t *testing.T) {
	tp := mapTask(2, 3*time.Second, 10, 20)
	if tp.Elapsed() != 3*time.Second {
		t.Fatalf("Elapsed = %v", tp.Elapsed())
	}
}

func TestJobProfileTimelineAndElapsed(t *testing.T) {
	jp := &JobProfile{
		Job: "wc", Mode: "dplus",
		SubmittedAt: sim.Time(1 * time.Second),
		DoneAt:      sim.Time(11 * time.Second),
	}
	if jp.Elapsed() != 10*time.Second {
		t.Fatalf("Elapsed = %v", jp.Elapsed())
	}
}

func TestSummarizeAverages(t *testing.T) {
	jp := &JobProfile{Job: "wc", Mode: "uplus"}
	jp.Add(mapTask(0, 2*time.Second, 100, 200))
	jp.Add(mapTask(1, 4*time.Second, 300, 400))
	jp.Add(&TaskProfile{Kind: ReduceTask, ComputeDur: time.Second, InputBytes: 600})

	s := jp.Summarize()
	if s.MapCount != 2 {
		t.Fatalf("MapCount = %d", s.MapCount)
	}
	if s.AvgMapCPU != 3*time.Second {
		t.Fatalf("AvgMapCPU = %v", s.AvgMapCPU)
	}
	if s.AvgIn != 200 || s.AvgOut != 300 {
		t.Fatalf("averages = %d/%d", s.AvgIn, s.AvgOut)
	}
	if s.Job != "wc" || s.Mode != "uplus" {
		t.Fatalf("identity lost: %+v", s)
	}
}

func TestSummarizeEmptyProfile(t *testing.T) {
	jp := &JobProfile{Job: "empty"}
	s := jp.Summarize()
	if s.MapCount != 0 || s.AvgMapCPU != 0 || s.AvgIn != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummaryString(t *testing.T) {
	jp := &JobProfile{Job: "wc", Mode: "dplus"}
	jp.Add(mapTask(0, time.Second, 10, 20))
	out := jp.Summarize().String()
	for _, want := range []string{"wc", "dplus", "1 maps"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() = %q missing %q", out, want)
		}
	}
}
