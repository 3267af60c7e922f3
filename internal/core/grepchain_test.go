package core

import (
	"bytes"
	"testing"

	"mrapid/internal/mapreduce"
	"mrapid/internal/topology"
	"mrapid/internal/workloads"
)

// TestGrepChainThroughFramework runs Hadoop's two-job Grep chain through
// the MRapid framework: the search job feeds the sort job, both submitted
// speculatively. The second job is tiny — exactly the ad-hoc short-job
// traffic the framework targets.
func TestGrepChainThroughFramework(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f := startFramework(t, rt, 3)

	text := bytes.Repeat([]byte("alpha req-a beta req-b req-a\nplain line\n"), 20_000)
	rt.DFS.PutInstant("/in/g/part-0", text, rt.Cluster.Workers()[0])
	rt.DFS.PutInstant("/in/g/part-1", bytes.Repeat([]byte("req-c req-a gamma\n"), 10_000), rt.Cluster.Workers()[1])

	search := workloads.GrepSearchSpec("grep-search", []string{"/in/g/part-0", "/in/g/part-1"}, "/grep/inter", "req")
	var searchRes, sortRes *mapreduce.Result
	rt.Eng.After(0, func() {
		f.Submit(ModeSpeculative, search, func(r *mapreduce.Result) {
			searchRes = r
			if r.Err != nil {
				return
			}
			sortSpec := workloads.GrepSortSpec("grep-sort",
				[]string{mapreduce.PartFileName("/grep/inter", 0)}, "/grep/out")
			f.Submit(ModeSpeculative, sortSpec, func(r2 *mapreduce.Result) {
				sortRes = r2
				rt.RM.Stop()
			})
		})
	})
	rt.Eng.RunUntil(rt.Eng.Now().Add(1 << 42))
	if searchRes == nil || searchRes.Err != nil {
		t.Fatalf("search job: %+v", searchRes)
	}
	if sortRes == nil || sortRes.Err != nil {
		t.Fatalf("sort job: %+v", sortRes)
	}

	matches, err := workloads.ParseGrepOutput(rt.DFS, "/grep/out")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"req-a": 50_000, "req-b": 20_000, "req-c": 10_000}
	if len(matches) != len(want) {
		t.Fatalf("matches = %+v", matches)
	}
	if matches[0].Word != "req-a" {
		t.Fatalf("top match = %+v", matches[0])
	}
	for _, m := range matches {
		if want[m.Word] != m.Count {
			t.Fatalf("count[%s] = %d, want %d", m.Word, m.Count, want[m.Word])
		}
	}
	// Two distinct job keys recorded: the next chain invocation would skip
	// speculation for both stages.
	if _, ok := f.History.Winner("grep-search"); !ok {
		t.Error("grep-search not in history")
	}
	if _, ok := f.History.Winner("grep-sort"); !ok {
		t.Error("grep-sort not in history")
	}
	// The sort stage is far smaller than the search stage.
	if sortRes.Elapsed() >= searchRes.Elapsed() {
		t.Errorf("sort (%.2fs) not cheaper than search (%.2fs)", sortRes.Elapsed(), searchRes.Elapsed())
	}
}
