package shuffle

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"mrapid/internal/core"
	"mrapid/internal/costmodel"
	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
	"mrapid/internal/metrics"
	"mrapid/internal/pin"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/workloads"
	"mrapid/internal/yarn"
)

// world is one fully wired simulation for the golden tests.
type world struct {
	rt  *mapreduce.Runtime
	svc *Service
	reg *metrics.Registry
}

// newWorld builds a 4-node A3 runtime; with attach false the service stays
// off and codec is ignored.
func newWorld(t testing.TB, seed int64, attach bool, codec string) *world {
	t.Helper()
	eng := sim.NewEngine()
	cluster, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: 4, Racks: 2})
	if err != nil {
		t.Fatal(err)
	}
	params := costmodel.Default()
	if attach {
		params.ShuffleService = true
		params.ShuffleCodec = codec
	}
	if err := params.Validate(); err != nil {
		t.Fatal(err)
	}
	dfs := hdfs.New(eng, cluster, params.HDFSBlockBytes, params.Replication, seed)
	// The D+ spreading scheduler places maps across nodes (the stock
	// scheduler packs them onto one), so consolidated fetches exercise the
	// network path, not just local pickup.
	rm := yarn.NewRM(eng, cluster, params, core.NewDPlusScheduler(core.FullDPlus()))
	rm.Start()
	rt := mapreduce.NewRuntime(eng, cluster, dfs, rm, params)
	t.Cleanup(rt.Close)
	rt.Reg = metrics.New()
	w := &world{rt: rt, reg: rt.Reg}
	if attach {
		svc, err := Attach(rt)
		if err != nil {
			t.Fatal(err)
		}
		w.svc = svc
	}
	return w
}

// stageWC stages a 6×512 KB WordCount input and builds the combiner spec.
func stageWC(t testing.TB, w *world) *mapreduce.JobSpec {
	t.Helper()
	names, err := workloads.GenerateWordCountInput(w.rt.DFS, w.rt.Cluster, "/in/wc", workloads.WordCountConfig{
		Files: 6, FileBytes: 512 << 10, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return workloads.WordCountSpec("wc", names, "/out", true)
}

// runDistributed drives one distributed-mode job to completion and returns
// the result plus the single reduce partition's bytes.
func runDistributed(t testing.TB, w *world, spec *mapreduce.JobSpec, faults []mapreduce.NodeFault) (*mapreduce.Result, []byte) {
	t.Helper()
	if len(faults) > 0 {
		if err := w.rt.ScheduleNodeFaults(faults); err != nil {
			t.Fatal(err)
		}
	}
	var res *mapreduce.Result
	w.rt.Eng.After(0, func() {
		mapreduce.Submit(w.rt, spec, mapreduce.ModeDistributed, func(r *mapreduce.Result) { res = r })
	})
	w.rt.Eng.RunUntil(w.rt.Eng.Now().Add(600 * time.Second))
	w.rt.RM.Stop()
	if res == nil {
		t.Fatal("job did not finish")
	}
	if res.Err != nil {
		t.Fatalf("job failed: %v", res.Err)
	}
	out, err := w.rt.DFS.Contents(mapreduce.PartFileName(spec.OutputFile, 0))
	if err != nil {
		t.Fatal(err)
	}
	return res, out
}

// pinRun pins one job of a test world: its virtual completion, output bytes
// and engine event count.
func pinRun(t *testing.T, run string, w *world, res *mapreduce.Result, out []byte) {
	t.Helper()
	pin.Check(t, run, pin.Record{"elapsed_s": res.Elapsed(), "output": pin.Digest(out), "events": w.rt.Eng.Fired()})
}

// The golden determinism contract: attaching the service — with or without
// compression — must not change a single byte of job output. Virtual
// completion time may differ (the service changes the cost model). The
// workers=0 suffix is part of the pinned run keys.
func TestGoldenOutputAcrossServiceAndWorkers(t *testing.T) {
	var goldenOut []byte
	for _, service := range []string{"off", "none", "lz"} {
		run := fmt.Sprintf("distributed service=%s workers=0", service)
		w := newWorld(t, 1, service != "off", service)
		res, out := runDistributed(t, w, stageWC(t, w), nil)
		pinRun(t, run, w, res, out)
		if goldenOut == nil {
			goldenOut = out
		} else if !bytes.Equal(goldenOut, out) {
			t.Fatalf("%s: output diverged from baseline", run)
		}
	}
}

// Crashing a node mid-job under the service must fall back to per-map
// recovery (every member of the consolidated group re-executes) and still
// produce byte-identical output — the PR-2 chaos contract extended to
// consolidated fetches.
func TestGoldenOutputUnderNodeFault(t *testing.T) {
	clean := newWorld(t, 1, true, "lz")
	cleanRes, cleanOut := runDistributed(t, clean, stageWC(t, clean), nil)
	pinRun(t, "distributed service=lz workers=0", clean, cleanRes, cleanOut)
	mid := time.Duration(cleanRes.Elapsed()/2*float64(time.Second)) + time.Millisecond
	for _, fault := range []mapreduce.NodeFault{
		{Node: "node-02", At: mid},
		{Node: "node-03", At: mid, RestartAfter: 10 * time.Second},
	} {
		w := newWorld(t, 1, true, "lz")
		res, out := runDistributed(t, w, stageWC(t, w), []mapreduce.NodeFault{fault})
		pinRun(t, fmt.Sprintf("distributed service=lz workers=0 crash=%s@%s restart=%s", fault.Node, fault.At, fault.RestartAfter), w, res, out)
		if !bytes.Equal(cleanOut, out) {
			t.Fatalf("output diverged after crashing %s at %s", fault.Node, fault.At)
		}
		// Completion is quantized by the 1 s client poll, so recovery may
		// hide inside the same poll window — but it can never be faster.
		if res.Elapsed() < cleanRes.Elapsed() {
			t.Errorf("faulty run (%.2fs) faster than clean run (%.2fs)", res.Elapsed(), cleanRes.Elapsed())
		}
	}
}

// sumCounters totals every series of a labeled counter family.
func sumCounters(reg *metrics.Registry, family string) int64 {
	var n int64
	for name, v := range reg.Counters() {
		if strings.HasPrefix(name, family+"{") {
			n += v
		}
	}
	return n
}

// The service's headline effect: one fetch per (node, partition) instead of
// per (map, partition), every one labeled kind=consolidated.
func TestConsolidatedFetchCount(t *testing.T) {
	off := newWorld(t, 1, false, "")
	runDistributed(t, off, stageWC(t, off), nil)
	perMap := sumCounters(off.reg, "mapreduce_shuffle_fetch_total")

	on := newWorld(t, 1, true, "none")
	runDistributed(t, on, stageWC(t, on), nil)
	consolidated := sumCounters(on.reg, "mapreduce_shuffle_fetch_total")

	if perMap != 6 { // one per map task × 1 reduce
		t.Errorf("per-map fetches = %d, want 6", perMap)
	}
	if consolidated >= perMap {
		t.Errorf("consolidated fetches %d not below per-map %d", consolidated, perMap)
	}
	if consolidated > 4 { // ≤ nodes × reduces
		t.Errorf("consolidated fetches %d exceed nodes×reduces = 4", consolidated)
	}
	for name := range on.reg.Counters() {
		if strings.HasPrefix(name, "mapreduce_shuffle_fetch_total{") && !strings.Contains(name, "kind=consolidated") {
			t.Errorf("service run recorded a non-consolidated fetch series %q", name)
		}
	}
}

// Consolidation stats feed the estimator: a combiner job's measured combine
// ratio drops below 1, the wire ratio compounds it with the codec, and a
// combinerless spec sees the codec ratio alone.
func TestWireRatioTracksMeasurements(t *testing.T) {
	w := newWorld(t, 1, true, "lz")
	spec := stageWC(t, w)
	if got := w.svc.WireRatio(spec); got != w.svc.Codec().Ratio {
		t.Fatalf("pre-evidence WireRatio = %v, want codec ratio %v", got, w.svc.Codec().Ratio)
	}
	runDistributed(t, w, spec, nil)
	mcr := w.svc.MeasuredCombineRatio()
	if mcr <= 0 || mcr >= 1 {
		t.Fatalf("measured combine ratio = %v, want in (0, 1)", mcr)
	}
	want := w.svc.Codec().Ratio * mcr
	if got := w.svc.WireRatio(spec); got != want {
		t.Errorf("WireRatio = %v, want %v", got, want)
	}
	plain := *spec
	plain.Combine = nil
	if got := w.svc.WireRatio(&plain); got != w.svc.Codec().Ratio {
		t.Errorf("combinerless WireRatio = %v, want codec ratio %v", got, w.svc.Codec().Ratio)
	}
	if w.reg.Get("shuffle_combine_saved_bytes") <= 0 {
		t.Error("combine-saved gauge not set")
	}
	if r := w.reg.Get("shuffle_compression_ratio_permille"); r <= 0 || r > 1000 {
		t.Errorf("compression ratio gauge = %d permille", r)
	}
}

// Registered outputs drain back to zero when the job finishes: the AM
// forgets its intermediate data, exactly like the real shuffle handler
// garbage-collecting a completed application's spills.
func TestRegisteredOutputsDrain(t *testing.T) {
	w := newWorld(t, 1, true, "none")
	runDistributed(t, w, stageWC(t, w), nil)
	for _, node := range w.rt.Cluster.Workers() {
		if n := w.svc.Registered(node); n != 0 {
			t.Errorf("%s still holds %d registered outputs after job completion", node.Name, n)
		}
	}
}

// The U+ cache path consolidates too: a framework-less cold U+ run with the
// service attached produces output byte-identical to the service-off run.
func TestUPlusGoldenOutput(t *testing.T) {
	outs := map[string][]byte{}
	for _, service := range []string{"off", "lz"} {
		w := newWorld(t, 1, service != "off", service)
		spec := stageWC(t, w)
		var res *mapreduce.Result
		w.rt.Eng.After(0, func() {
			mapreduce.Submit(w.rt, spec, mapreduce.ModeUPlus(mapreduce.FullUPlus()), func(r *mapreduce.Result) { res = r })
		})
		w.rt.Eng.RunUntil(w.rt.Eng.Now().Add(600 * time.Second))
		w.rt.RM.Stop()
		if res == nil || res.Err != nil {
			t.Fatalf("service=%s: U+ job failed: %+v", service, res)
		}
		out, err := w.rt.DFS.Contents(mapreduce.PartFileName(spec.OutputFile, 0))
		if err != nil {
			t.Fatal(err)
		}
		pinRun(t, "uplus service="+service, w, res, out)
		outs[service] = out
	}
	if !bytes.Equal(outs["off"], outs["lz"]) {
		t.Fatal("U+ output diverged with the service attached")
	}
}
