package mapreduce

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"mrapid/internal/hdfs"
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

// An attempt whose node dies while its compute timer runs drops its body,
// on lanes and inline alike, for a map and for a reduce. Two attempts on the
// dying node, the second sharing the first's body, never deliver and store
// nothing in the MapCache, so a later attempt misses and computes it again.
// An attempt on a live node that shares a body with one on a dying node
// still gets the output and stores it: the sharer of a map's body, and the
// sharer of a reduce's body whose owner died, which commits the part file.
func TestNodeDeathMidComputeDropsTheBody(t *testing.T) {
	stage := func(rt *Runtime) *hdfs.Split {
		names, _ := stageWordCountInput(t, rt, 1, 1<<20)
		splits, err := rt.DFS.Splits(names)
		if err != nil {
			t.Fatal(err)
		}
		return splits[0]
	}
	spec := wcSpec(nil, "/out")
	mapOne := func(rt *Runtime, node *topology.Node) (mo *MapOutput, tp *profiler.TaskProfile) {
		rt.RunMapTask(spec, stage(rt), node, TaskOptions{}, func(out *MapOutput, p *profiler.TaskProfile, err error) {
			if err != nil {
				t.Fatal(err)
			}
			mo, tp = out, p
		})
		rt.Eng.RunUntil(rt.Eng.Now().Add(time.Minute))
		return mo, tp
	}
	// A kind's compute timer on node 1 runs, for a map, from the end of its
	// read to the start of its output-sized sort charge, and for a reduce
	// from its start to its write; a quarter in is inside it.
	ref := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	mo, tp := mapOne(ref, ref.Cluster.Workers()[1])
	mapMid := tp.ReadDur + tp.ComputeDur/4
	var reduceMid time.Duration
	ref.RunReduceTask(spec, 0, TaskOptions{}, []*MapOutput{mo}, ref.Cluster.Workers()[1], func(tp *profiler.TaskProfile, err error) {
		if err != nil {
			t.Fatal(err)
		}
		reduceMid = tp.ComputeDur / 4
	})
	ref.Eng.RunUntil(ref.Eng.Now().Add(time.Minute))
	want := ExecReduce(spec, 0, []*MapOutput{mo}).Encoded

	type counts struct{ misses, hits int64 }
	for _, kind := range []struct {
		name string
		mid  time.Duration
		// arm readies rt and returns how to start an attempt, which sets
		// delivered[attempt] when it succeeds, and the kind's lookup counts.
		arm func(rt *Runtime, delivered map[int]bool) (run func(attempt int, node *topology.Node), lookups func() counts)
		// second is the order of the live node 2 and the dying node 3 in
		// the second pair: the owner of the body first.
		second [2]int
	}{
		{"map", mapMid, func(rt *Runtime, delivered map[int]bool) (func(int, *topology.Node), func() counts) {
			split := stage(rt)
			return func(attempt int, node *topology.Node) {
					rt.RunMapTask(spec, split, node, TaskOptions{Attempt: attempt}, func(mo *MapOutput, _ *profiler.TaskProfile, err error) {
						if err != nil || mo.Node != node {
							t.Fatalf("map attempt %d: %v", attempt, err)
						}
						delivered[attempt] = true
					})
				}, func() counts {
					return counts{rt.MapCache.Misses(), rt.MapCache.Hits()}
				}
		}, [2]int{2, 3}},
		{"reduce", reduceMid, func(rt *Runtime, delivered map[int]bool) (func(int, *topology.Node), func() counts) {
			mo, _ := mapOne(rt, rt.Cluster.Workers()[0])
			return func(attempt int, node *topology.Node) {
					rt.RunReduceTask(spec, 0, TaskOptions{Attempt: attempt}, []*MapOutput{mo}, node, func(_ *profiler.TaskProfile, err error) {
						if err != nil {
							t.Fatalf("reduce attempt %d: %v", attempt, err)
						}
						delivered[attempt] = true
					})
				}, func() counts {
					return counts{rt.MapCache.ReduceMisses(), rt.MapCache.ReduceHits()}
				}
		}, [2]int{3, 2}},
	} {
		for _, lanes := range []int{0, 2} {
			t.Cleanup(UseHostLanes(lanes))
			rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
			rt.MapCache = NewMapCache(1 << 30)
			delivered := map[int]bool{}
			run, lookups := kind.arm(rt, delivered)
			entries := func() int {
				if kind.name == "map" {
					return len(rt.MapCache.maps.entries)
				}
				return len(rt.MapCache.reduces.entries)
			}
			nodes := rt.Cluster.Workers()
			run(0, nodes[1])
			run(1, nodes[1])
			// A pause on the host before the crash gives a worker the time to
			// finish the body, so the drop finds it done: a done body's output
			// must still not be stored.
			rt.Eng.After(kind.mid, func() {
				time.Sleep(20 * time.Millisecond)
				nodes[1].Fail()
			})
			rt.Eng.RunUntil(rt.Eng.Now().Add(time.Minute))
			if len(delivered) != 0 || entries() != 0 || lookups() != (counts{1, 1}) {
				t.Fatalf("%s, %d lanes: on the dead node %v delivered, %d entries, lookups %+v; want none, 0, 1 miss and 1 hit",
					kind.name, lanes, delivered, entries(), lookups())
			}
			if _, err := rt.DFS.Contents(PartFileName("/out", 0)); err == nil {
				t.Fatalf("%s, %d lanes: a part file was committed from the dead node", kind.name, lanes)
			}
			run(2, nodes[kind.second[0]])
			run(3, nodes[kind.second[1]])
			rt.Eng.After(kind.mid, nodes[3].Fail)
			rt.Eng.RunUntil(rt.Eng.Now().Add(time.Minute))
			live := 2 + slices.Index(kind.second[:], 2)
			if len(delivered) != 1 || !delivered[live] || entries() != 1 || lookups() != (counts{2, 2}) {
				t.Fatalf("%s, %d lanes: %v delivered, %d entries, lookups %+v; want attempt %d only, 1, 2 misses and 2 hits",
					kind.name, lanes, delivered, entries(), lookups(), live)
			}
			if kind.name == "reduce" {
				if got, err := rt.DFS.Contents(PartFileName("/out", 0)); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%d lanes: the sharer committed %d bytes (%v), want the %d a reduce writes", lanes, len(got), err, len(want))
				}
			}
		}
	}
}
