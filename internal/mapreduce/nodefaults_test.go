package mapreduce

import (
	"errors"
	"testing"
	"time"

	"mrapid/internal/profiler"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

func TestParseNodeFaults(t *testing.T) {
	got, err := ParseNodeFaults(" node-02@5s:20s , node-07@8s ")
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeFault{
		{Node: "node-02", At: 5 * time.Second, RestartAfter: 20 * time.Second},
		{Node: "node-07", At: 8 * time.Second},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d faults, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fault %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[0].String() != "node-02@5s:20s" || got[1].String() != "node-07@8s" {
		t.Fatalf("round-trip strings: %q / %q", got[0], got[1])
	}
	if faults, err := ParseNodeFaults(""); err != nil || faults != nil {
		t.Fatalf("empty schedule: %v / %v", faults, err)
	}
	for _, bad := range []string{"node-02", "@5s", "node-02@", "node-02@-1s", "node-02@5s:0s", "node-02@5s:x"} {
		if _, err := ParseNodeFaults(bad); err == nil {
			t.Errorf("ParseNodeFaults(%q) accepted", bad)
		}
	}
}

func TestScheduleNodeFaultsRejectsUnknownAndMaster(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	if err := rt.ScheduleNodeFaults([]NodeFault{{Node: "node-99", At: time.Second}}); err == nil {
		t.Fatal("unknown node accepted")
	}
	master := rt.Cluster.Master().Name
	if err := rt.ScheduleNodeFaults([]NodeFault{{Node: master, At: time.Second}}); err == nil {
		t.Fatal("master fault accepted")
	}
}

func TestMapOutputUnavailableAfterNodeDeath(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	names, _ := stageWordCountInput(t, rt, 1, 64<<10)
	splits, err := rt.DFS.Splits(names)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := rt.Cluster.Workers()[0], rt.Cluster.Workers()[1]
	spec := wcSpec(names, "/out")
	var mo *MapOutput
	rt.Eng.After(0, func() {
		rt.RunMapTask(spec, splits[0], src, TaskOptions{}, func(m *MapOutput, _ *profiler.TaskProfile, err error) {
			if err != nil {
				t.Errorf("map failed: %v", err)
			}
			mo = m
		})
	})
	rt.Eng.RunUntil(horizon)
	if mo == nil {
		t.Fatal("map never completed")
	}
	if !mo.Readable() {
		t.Fatal("fresh output reported unavailable")
	}
	src.Fail()
	if mo.Readable() {
		t.Fatal("output on a dead node reported available")
	}
	var fetchErr error
	fetched := false
	rt.Eng.After(0, func() {
		rt.FetchPartition(mo, 0, dst, func(err error) {
			fetched = true
			fetchErr = err
		})
	})
	rt.Eng.RunUntil(horizon)
	if !fetched {
		t.Fatal("fetch callback never fired")
	}
	if !errors.Is(fetchErr, ErrOutputLost) {
		t.Fatalf("fetch error = %v, want ErrOutputLost", fetchErr)
	}
	// A restart does not resurrect the intermediate data: the reborn node
	// has an empty local disk.
	src.Restart()
	if mo.Readable() {
		t.Fatal("output survived the node's reboot")
	}
}

// runWordCountWithFaults runs a small distributed WordCount with the given
// node-fault schedule armed at submission time.
func runWordCountWithFaults(t *testing.T, files, size int, faults []NodeFault) (*Result, *Runtime, []byte) {
	t.Helper()
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	names, all := stageWordCountInput(t, rt, files, size)
	if len(faults) > 0 {
		if err := rt.ScheduleNodeFaults(faults); err != nil {
			t.Fatal(err)
		}
	}
	return runJob(t, rt, wcSpec(names, "/out"), ModeDistributed), rt, all
}

// mapNodesOf lists the distinct nodes that ran successful map attempts, in
// first-use order.
func mapNodesOf(res *Result) []string {
	seen := map[string]bool{}
	var out []string
	for _, tp := range res.Profile.Tasks {
		if tp.Kind != profiler.MapTask || tp.Failed || seen[tp.Node] {
			continue
		}
		seen[tp.Node] = true
		out = append(out, tp.Node)
	}
	return out
}

// Crashing a node that holds committed map output during the shuffle makes
// the reduce's fetch fail, and the AM must re-execute the lost maps
// (Hadoop's too-many-fetch-failures path). The clean run pins down the
// deterministic timeline; the victim is whichever map-hosting node the AM
// does not sit on.
func TestShuffleFetchFailureReexecutesMap(t *testing.T) {
	clean, _, _ := runWordCountWithFaults(t, 4, 512<<10, nil)
	if clean.Err != nil {
		t.Fatalf("clean run failed: %v", clean.Err)
	}
	crashAt := time.Duration(clean.Profile.MapsDoneAt) + time.Millisecond
	for _, node := range mapNodesOf(clean) {
		res, rt, all := runWordCountWithFaults(t, 4, 512<<10, []NodeFault{{Node: node, At: crashAt}})
		if res.Err != nil {
			t.Fatalf("crash of %s: job failed: %v", node, res.Err)
		}
		verifyWordCount(t, rt, "/out", all)
		// A fetch-failure recovery reschedules the lost map, so the repeat
		// runs at attempt >= 1. (An AM-hosting victim recovers by a full AM
		// relaunch instead, whose re-runs are all attempt 0 — not the path
		// under test, so try the next candidate.)
		rescheduled := 0
		for _, tp := range res.Profile.Tasks {
			if tp.Kind == profiler.MapTask && !tp.Failed && tp.Attempt >= 1 {
				rescheduled++
			}
		}
		if rescheduled >= 1 {
			return
		}
	}
	t.Fatal("no candidate crash produced a rescheduled map; fetch-failure path not exercised")
}

// Losing the machine hosting a cold-submitted AM must relaunch the whole
// attempt (YARN's am.max-attempts), not fail the job. The AM's placement is
// deterministic but not exposed, so every worker is crashed in turn: all
// runs must succeed, and the run that hit the AM's node is visible as a
// second application submission.
func TestColdAMLostRelaunches(t *testing.T) {
	clean, cleanRT, _ := runWordCountWithFaults(t, 4, 512<<10, nil)
	if clean.Err != nil {
		t.Fatalf("clean run failed: %v", clean.Err)
	}
	crashAt := time.Duration(clean.Profile.AMReadyAt) - 50*time.Millisecond
	relaunches := 0
	for _, w := range cleanRT.Cluster.Workers() {
		res, rt, all := runWordCountWithFaults(t, 4, 512<<10, []NodeFault{{Node: w.Name, At: crashAt}})
		if res.Err != nil {
			t.Fatalf("crash of %s: job failed: %v", w.Name, res.Err)
		}
		verifyWordCount(t, rt, "/out", all)
		if rt.RM.Metrics.AppsSubmitted >= 2 {
			relaunches++
		}
	}
	if relaunches == 0 {
		t.Fatal("no crash ever hit the AM's node; relaunch path not exercised")
	}
}

// A crashed-then-restarted node rejoins mid-job: the RM re-admits it and the
// remaining work may schedule there, with the job completing correctly.
func TestNodeRestartRejoinsMidJob(t *testing.T) {
	clean, _, _ := runWordCountWithFaults(t, 4, 512<<10, nil)
	if clean.Err != nil {
		t.Fatalf("clean run failed: %v", clean.Err)
	}
	mid := time.Duration(clean.Profile.FirstTaskAt) / 2
	node := mapNodesOf(clean)[0]
	res, rt, all := runWordCountWithFaults(t, 4, 512<<10,
		[]NodeFault{{Node: node, At: mid, RestartAfter: 10 * time.Second}})
	if res.Err != nil {
		t.Fatalf("crash/restart of %s: job failed: %v", node, res.Err)
	}
	verifyWordCount(t, rt, "/out", all)
}
