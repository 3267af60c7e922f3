package mapreduce

import (
	"bytes"
	"strconv"
	"testing"
	"time"

	"mrapid/internal/profiler"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

// horizon is a far-future deadline for draining job simulations whose
// NM-heartbeat tickers never stop on their own.
const horizon = sim.Time(1 << 42)

// runJob submits a job in the given stock mode and drives the simulation to
// completion.
func runJob(t *testing.T, rt *Runtime, spec *JobSpec, mode Mode) *Result {
	t.Helper()
	var res *Result
	rt.Eng.After(0, func() {
		Submit(rt, spec, mode, func(r *Result) {
			res = r
			rt.RM.Stop()
		})
	})
	rt.Eng.RunUntil(horizon)
	if res == nil {
		t.Fatal("job never completed")
	}
	return res
}

// stageWordCountInput writes n files of roughly size bytes each and returns
// (names, all concatenated data). File i cycles through the three
// sentences from sentence i mod 3 on.
func stageWordCountInput(t *testing.T, rt *Runtime, n int, size int) ([]string, []byte) {
	t.Helper()
	var names []string
	var all []byte
	sentences := [][]byte{
		[]byte("the quick brown fox jumps over the lazy dog\n"),
		[]byte("pack my box with five dozen liquor jugs\n"),
		[]byte("how vexingly quick daft zebras jump\n"),
	}
	for i := 0; i < n; i++ {
		var buf bytes.Buffer
		for k := i; buf.Len() < size; k++ {
			buf.Write(sentences[k%len(sentences)])
		}
		name := "/in/wc/part-" + strconv.Itoa(i)
		if _, err := rt.DFS.PutInstant(name, buf.Bytes(), rt.Cluster.Workers()[i%len(rt.Cluster.Workers())]); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		all = append(all, buf.Bytes()...)
	}
	return names, all
}

func verifyWordCount(t *testing.T, rt *Runtime, output string, input []byte) {
	t.Helper()
	want := map[string]int{}
	for _, w := range bytes.Fields(input) {
		want[string(w)]++
	}
	data, err := rt.DFS.Contents(PartFileName(output, 0))
	if err != nil {
		t.Fatalf("output missing: %v", err)
	}
	got := map[string]int{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		i := bytes.IndexByte(line, '\t')
		n, err := strconv.Atoi(string(line[i+1:]))
		if err != nil {
			t.Fatalf("bad output line %q", line)
		}
		got[string(line[:i])] = n
	}
	if len(got) != len(want) {
		t.Fatalf("output has %d words, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%q] = %d, want %d", k, got[k], v)
		}
	}
}

func TestDistributedWordCountEndToEnd(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	names, all := stageWordCountInput(t, rt, 4, 2<<20)
	spec := wcSpec(names, "/out/wc")
	res := runJob(t, rt, spec, ModeDistributed)
	if res.Err != nil {
		t.Fatalf("job failed: %v", res.Err)
	}
	verifyWordCount(t, rt, "/out/wc", all)

	p := res.Profile
	if p.NumMaps != 4 {
		t.Errorf("NumMaps = %d", p.NumMaps)
	}
	maps, reduces := 0, 0
	for _, tp := range p.Tasks {
		switch tp.Kind {
		case profiler.MapTask:
			maps++
		case profiler.ReduceTask:
			reduces++
		}
	}
	if maps != 4 || reduces != 1 {
		t.Errorf("task records = %d maps / %d reduces", maps, reduces)
	}
	if p.Elapsed() <= 0 || p.AMReadyAt <= p.SubmittedAt || p.DoneAt < p.MapsDoneAt {
		t.Errorf("profile timeline inconsistent: %+v", p)
	}
	// Sanity on magnitude: a 4×2MB wordcount on stock Hadoop lands in the
	// tens of seconds, not milliseconds and not hours.
	if e := p.Elapsed(); e < 5*time.Second || e > 120*time.Second {
		t.Errorf("elapsed = %v, implausible for a short job", e)
	}
}

func TestUberWordCountEndToEnd(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	names, all := stageWordCountInput(t, rt, 2, 1<<20)
	spec := wcSpec(names, "/out/wc")
	res := runJob(t, rt, spec, ModeUber)
	if res.Err != nil {
		t.Fatalf("job failed: %v", res.Err)
	}
	verifyWordCount(t, rt, "/out/wc", all)
	if res.Profile.NumContainers != 1 {
		t.Errorf("uber NumContainers = %d", res.Profile.NumContainers)
	}
	// All tasks ran on the AM node.
	node := res.Profile.Tasks[0].Node
	for _, tp := range res.Profile.Tasks {
		if tp.Node != node {
			t.Errorf("uber task ran on %s, AM on %s", tp.Node, node)
		}
	}
}

func TestDistributedAndUberAgreeOnOutput(t *testing.T) {
	rtD := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	rtU := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	namesD, _ := stageWordCountInput(t, rtD, 3, 1<<20)
	namesU, _ := stageWordCountInput(t, rtU, 3, 1<<20)
	runJob(t, rtD, wcSpec(namesD, "/out"), ModeDistributed)
	runJob(t, rtU, wcSpec(namesU, "/out"), ModeUber)
	a, errA := rtD.DFS.Contents(PartFileName("/out", 0))
	b, errB := rtU.DFS.Contents(PartFileName("/out", 0))
	if errA != nil || errB != nil {
		t.Fatalf("outputs missing: %v %v", errA, errB)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("distributed and uber outputs differ")
	}
}

func TestUberSequentialVsDistributedParallel(t *testing.T) {
	// With several equally sized maps and a healthy cluster, distributed
	// mode's parallel waves beat uber's strictly sequential execution once
	// per-map work dominates the fixed overheads.
	mk := func() (*Runtime, *JobSpec) {
		rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
		names, _ := stageWordCountInput(t, rt, 8, 1<<20)
		spec := wcSpec(names, "/out")
		// Slow the map function down so per-map compute dominates the fixed
		// overheads without inflating the real data volume.
		spec.MapRate = 1e6
		return rt, spec
	}
	rtD, specD := mk()
	rtU, specU := mk()
	d := runJob(t, rtD, specD, ModeDistributed)
	u := runJob(t, rtU, specU, ModeUber)
	if d.Err != nil || u.Err != nil {
		t.Fatalf("jobs failed: %v / %v", d.Err, u.Err)
	}
	if d.Elapsed() >= u.Elapsed() {
		t.Errorf("distributed (%.1fs) should beat sequential uber (%.1fs) on 8×4MB",
			d.Elapsed(), u.Elapsed())
	}
}

func TestDistributedRunsMultipleWaves(t *testing.T) {
	// 2 workers × 2 containers (A2) = 4 slots; 10 maps needs ≥ 3 waves.
	rt := newTestRuntime(t, topology.A2, 2, yarn.NewStockScheduler())
	names, all := stageWordCountInput(t, rt, 10, 256<<10)
	res := runJob(t, rt, wcSpec(names, "/out"), ModeDistributed)
	if res.Err != nil {
		t.Fatalf("job failed: %v", res.Err)
	}
	verifyWordCount(t, rt, "/out", all)
	if got := len(res.Profile.Tasks); got != 11 {
		t.Errorf("tasks = %d, want 10 maps + 1 reduce", got)
	}
}

func TestJobFailsOnMissingInput(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	spec := wcSpec([]string{"/does/not/exist"}, "/out")
	res := runJob(t, rt, spec, ModeDistributed)
	if res.Err == nil {
		t.Fatal("job with missing input succeeded")
	}
}

func TestJobFailsOnInvalidSpec(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	spec := wcSpec(nil, "/out")
	res := runJob(t, rt, spec, ModeUber)
	if res.Err == nil {
		t.Fatal("invalid spec succeeded")
	}
}

func TestDeterministicElapsed(t *testing.T) {
	run := func() float64 {
		rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
		names, _ := stageWordCountInput(t, rt, 4, 1<<20)
		return runJob(t, rt, wcSpec(names, "/out"), ModeDistributed).Elapsed()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs took %.6fs and %.6fs", a, b)
	}
}

func TestMultiReduceDistributed(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	names, all := stageWordCountInput(t, rt, 4, 512<<10)
	spec := wcSpec(names, "/out")
	spec.NumReduces = 3
	res := runJob(t, rt, spec, ModeDistributed)
	if res.Err != nil {
		t.Fatalf("job failed: %v", res.Err)
	}
	want := map[string]int{}
	for _, w := range bytes.Fields(all) {
		want[string(w)]++
	}
	got := map[string]int{}
	for p := 0; p < 3; p++ {
		data, err := rt.DFS.Contents(PartFileName("/out", p))
		if err != nil {
			t.Fatalf("partition %d missing: %v", p, err)
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			i := bytes.IndexByte(line, '\t')
			n, _ := strconv.Atoi(string(line[i+1:]))
			got[string(line[:i])] = n
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d words, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%q] = %d, want %d", k, got[k], v)
		}
	}
}

func TestProfileSummarize(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	names, _ := stageWordCountInput(t, rt, 4, 1<<20)
	res := runJob(t, rt, wcSpec(names, "/out"), ModeDistributed)
	s := res.Profile.Summarize()
	if s.MapCount != 4 {
		t.Errorf("MapCount = %d", s.MapCount)
	}
	if s.AvgMapCPU <= 0 || s.AvgIn <= 0 || s.AvgOut <= 0 {
		t.Errorf("summary empty: %+v", s)
	}
	var reduceIn int64
	for _, tp := range res.Profile.Tasks {
		if tp.Kind == profiler.ReduceTask && !tp.Failed {
			reduceIn += tp.InputBytes
		}
	}
	if reduceIn <= 0 {
		t.Errorf("reduce InputBytes = %d", reduceIn)
	}
	if s.String() == "" {
		t.Error("Summary.String empty")
	}
}
