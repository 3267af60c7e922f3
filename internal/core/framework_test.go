package core

import (
	"bytes"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"mrapid/internal/mapreduce"
	"mrapid/internal/metrics"
	"mrapid/internal/profiler"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

const horizon = sim.Time(1 << 42)

// profilerSummary builds a plausible measured summary for estimator tests.
func profilerSummary() profiler.Summary {
	return profiler.Summary{
		Job: "wc", Mode: "dplus", MapCount: 4,
		AvgMapCPU: 1500 * time.Millisecond, AvgIn: 10 << 20, AvgOut: 12 << 20,
	}
}

// stageInput writes n deterministic text files and returns names + all data.
func stageInput(t testing.TB, rt *mapreduce.Runtime, n, size int) ([]string, []byte) {
	t.Helper()
	var names []string
	var all []byte
	line := []byte("lorem ipsum dolor sit amet consectetur adipiscing elit sed do\n")
	for i := 0; i < n; i++ {
		var buf bytes.Buffer
		for buf.Len() < size {
			buf.Write(line)
		}
		name := "/in/part-" + strconv.Itoa(i)
		if _, err := rt.DFS.PutInstant(name, buf.Bytes(), rt.Cluster.Workers()[i%len(rt.Cluster.Workers())]); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		all = append(all, buf.Bytes()...)
	}
	return names, all
}

func testWCSpec(inputs []string, output string) *mapreduce.JobSpec {
	return &mapreduce.JobSpec{
		Name:       "wc-core",
		JobKey:     "wordcount",
		InputFiles: inputs,
		OutputFile: output,
		NumReduces: 1,
		Format:     mapreduce.LineFormat{},
		Map: func(_, line []byte, emit mapreduce.Emit) {
			for _, w := range bytes.Fields(line) {
				emit(w, []byte("1"))
			}
		},
		Reduce: func(key []byte, values mapreduce.Values, emit mapreduce.Emit) {
			total := 0
			for i := range values.Len() {
				v, times := values.At(i)
				n, _ := strconv.Atoi(string(v))
				total += times * n
			}
			emit(key, []byte(strconv.Itoa(total)))
		},
		MapRate:    6e6,
		ReduceRate: 12e6,
	}
}

// startFramework builds a framework over rt with the given pool size and
// waits for the pool to come up.
func startFramework(t testing.TB, rt *mapreduce.Runtime, poolSize int) *Framework {
	t.Helper()
	f := NewFramework(rt, poolSize, FullUPlus())
	ready := false
	rt.Eng.After(0, func() { f.Start(func() { ready = true }) })
	rt.Eng.RunUntil(sim.Time(60 * time.Second))
	if !ready {
		t.Fatal("framework pool never came up")
	}
	// The memo tiers too, whichever cache the test attaches later.
	t.Cleanup(func() {
		if err := f.CheckResidency(); err != nil {
			t.Error(err)
		}
	})
	return f
}

func verifyWC(t testing.TB, rt *mapreduce.Runtime, output string, input []byte) {
	t.Helper()
	want := map[string]int{}
	for _, w := range bytes.Fields(input) {
		want[string(w)]++
	}
	data, err := rt.DFS.Contents(mapreduce.PartFileName(output, 0))
	if err != nil {
		t.Fatalf("output missing: %v", err)
	}
	got := map[string]int{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		i := bytes.IndexByte(line, '\t')
		n, _ := strconv.Atoi(string(line[i+1:]))
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

func TestPoolStartAcquireRelease(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f := startFramework(t, rt, 3)
	if f.Pool.Idle() != 3 {
		t.Fatalf("idle = %d, want 3", f.Pool.Idle())
	}
	var got []*PooledAM
	for i := 0; i < 4; i++ { // one more than the pool holds
		f.Pool.Acquire(func(am *PooledAM) { got = append(got, am) })
	}
	rt.Eng.RunUntil(rt.Eng.Now().Add(time.Second))
	if len(got) != 3 {
		t.Fatalf("acquired %d, want 3 (fourth waits)", len(got))
	}
	f.Pool.Release(got[0])
	rt.Eng.RunUntil(rt.Eng.Now().Add(time.Second))
	if len(got) != 4 {
		t.Fatalf("waiter not served after release: %d", len(got))
	}
	if f.Pool.Dispatches != 4 {
		t.Fatalf("Dispatches = %d", f.Pool.Dispatches)
	}
}

func TestPoolOccupiesClusterResources(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	startFramework(t, rt, 3)
	used := rt.RM.TotalUsed()
	if used.VCores != 3 {
		t.Fatalf("pool holds %v, want 3 vcores reserved", used)
	}
}

func TestPoolReleaseIdlePanics(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f := startFramework(t, rt, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	f.Pool.Release(f.Pool.ams[0])
}

func TestDPlusEndToEnd(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f := startFramework(t, rt, 3)
	names, all := stageInput(t, rt, 4, 1<<20)
	var res *mapreduce.Result
	rt.Eng.After(0, func() {
		f.Submit(ModeDPlus, testWCSpec(names, "/out"), func(r *mapreduce.Result) {
			res = r
			rt.RM.Stop()
		})
	})
	rt.Eng.RunUntil(horizon)
	if res == nil || res.Err != nil {
		t.Fatalf("job failed: %+v", res)
	}
	verifyWC(t, rt, "/out", all)
	if res.Mode != "dplus" {
		t.Fatalf("mode = %q", res.Mode)
	}
	if f.Pool.Idle() != 3 {
		t.Fatalf("AM not returned to pool: idle = %d", f.Pool.Idle())
	}
}

func TestUPlusEndToEnd(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f := startFramework(t, rt, 3)
	names, all := stageInput(t, rt, 4, 1<<20)
	var res *mapreduce.Result
	rt.Eng.After(0, func() {
		f.Submit(ModeUPlus, testWCSpec(names, "/out"), func(r *mapreduce.Result) {
			res = r
			rt.RM.Stop()
		})
	})
	rt.Eng.RunUntil(horizon)
	if res == nil || res.Err != nil {
		t.Fatalf("job failed: %+v", res)
	}
	verifyWC(t, rt, "/out", all)
	// All intermediate data fits the cache: no map spilled.
	for _, tp := range res.Profile.Tasks {
		if tp.Kind == profiler.MapTask && tp.Spills != 0 {
			t.Errorf("map %d spilled despite the memory cache", tp.Index)
		}
	}
}

func TestDPlusFasterThanStockHadoop(t *testing.T) {
	t.Parallel()
	run := func(sched yarn.Scheduler, framework bool) float64 {
		rt := newRuntime(t, topology.A3, 4, sched)
		names, _ := stageInput(t, rt, 8, 1<<20)
		spec := testWCSpec(names, "/out")
		var elapsed float64
		if framework {
			f := startFramework(t, rt, 3)
			rt.Eng.After(0, func() {
				f.Submit(ModeDPlus, spec, func(r *mapreduce.Result) {
					elapsed = r.Elapsed()
					rt.RM.Stop()
				})
			})
		} else {
			rt.Eng.After(0, func() {
				mapreduce.Submit(rt, spec, mapreduce.ModeDistributed, func(r *mapreduce.Result) {
					elapsed = r.Elapsed()
					rt.RM.Stop()
				})
			})
		}
		rt.Eng.RunUntil(horizon)
		return elapsed
	}
	stock := run(yarn.NewStockScheduler(), false)
	dplus := run(NewDPlusScheduler(FullDPlus()), true)
	if stock == 0 || dplus == 0 {
		t.Fatal("a run did not complete")
	}
	if dplus >= stock {
		t.Fatalf("D+ (%.2fs) not faster than stock Hadoop (%.2fs)", dplus, stock)
	}
	improvement := (stock - dplus) / stock * 100
	t.Logf("stock=%.2fs dplus=%.2fs improvement=%.1f%%", stock, dplus, improvement)
	if improvement < 10 || improvement > 90 {
		t.Errorf("improvement %.1f%% outside the paper's 11–88%% envelope", improvement)
	}
}

func TestUPlusFasterThanStockUber(t *testing.T) {
	t.Parallel()
	run := func(uplus bool) float64 {
		rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
		names, _ := stageInput(t, rt, 4, 1<<20)
		spec := testWCSpec(names, "/out")
		var elapsed float64
		if uplus {
			f := startFramework(t, rt, 3)
			rt.Eng.After(0, func() {
				f.Submit(ModeUPlus, spec, func(r *mapreduce.Result) {
					elapsed = r.Elapsed()
					rt.RM.Stop()
				})
			})
		} else {
			rt.Eng.After(0, func() {
				mapreduce.Submit(rt, spec, mapreduce.ModeUber, func(r *mapreduce.Result) {
					elapsed = r.Elapsed()
					rt.RM.Stop()
				})
			})
		}
		rt.Eng.RunUntil(horizon)
		return elapsed
	}
	stock := run(false)
	uplus := run(true)
	if uplus >= stock {
		t.Fatalf("U+ (%.2fs) not faster than stock Uber (%.2fs)", uplus, stock)
	}
	t.Logf("uber=%.2fs uplus=%.2fs improvement=%.1f%%", stock, uplus, (stock-uplus)/stock*100)
}

func TestUPlusCacheOverflowSpills(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	rt.Params.UberCacheBytes = 64 << 10 // tiny budget: most maps must spill
	f := NewFramework(rt, 2, FullUPlus())
	ready := false
	rt.Eng.After(0, func() { f.Start(func() { ready = true }) })
	rt.Eng.RunUntil(sim.Time(60 * time.Second))
	if !ready {
		t.Fatal("pool not ready")
	}
	names, all := stageInput(t, rt, 4, 256<<10)
	var res *mapreduce.Result
	rt.Eng.After(0, func() {
		f.Submit(ModeUPlus, testWCSpec(names, "/out"), func(r *mapreduce.Result) {
			res = r
			rt.RM.Stop()
		})
	})
	rt.Eng.RunUntil(horizon)
	if res == nil || res.Err != nil {
		t.Fatalf("job failed: %+v", res)
	}
	verifyWC(t, rt, "/out", all)
	spilled := 0
	for _, tp := range res.Profile.Tasks {
		if tp.Kind == profiler.MapTask && tp.Spills > 0 {
			spilled++
		}
	}
	if spilled == 0 {
		t.Fatal("no map spilled despite the tiny cache budget")
	}
}

func TestUPlusColdSlowerThanPooled(t *testing.T) {
	t.Parallel()
	runCold := func() float64 {
		rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
		names, _ := stageInput(t, rt, 2, 512<<10)
		var elapsed float64
		rt.Eng.After(0, func() {
			mapreduce.Submit(rt, testWCSpec(names, "/out"), mapreduce.ModeUPlus(FullUPlus()), func(r *mapreduce.Result) {
				elapsed = r.Elapsed()
				rt.RM.Stop()
			})
		})
		rt.Eng.RunUntil(horizon)
		return elapsed
	}
	runPooled := func() float64 {
		rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
		f := startFramework(t, rt, 2)
		names, _ := stageInput(t, rt, 2, 512<<10)
		var elapsed float64
		rt.Eng.After(0, func() {
			f.Submit(ModeUPlus, testWCSpec(names, "/out"), func(r *mapreduce.Result) {
				elapsed = r.Elapsed()
				rt.RM.Stop()
			})
		})
		rt.Eng.RunUntil(horizon)
		return elapsed
	}
	cold, pooled := runCold(), runPooled()
	if pooled >= cold {
		t.Fatalf("pooled U+ (%.2fs) not faster than cold U+ (%.2fs)", pooled, cold)
	}
}

// A saved snapshot loads back every entry whole: winner, running mean,
// run count and per-mode wins.
func TestHistoryRoundTrip(t *testing.T) {
	t.Parallel()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	h := NewHistory()
	h.Record("wordcount", ModeDPlus, 20*time.Second)
	h.Record("pi", ModeUPlus, 9*time.Second)
	h.Record("wordcount", ModeUPlus, 18*time.Second) // update
	if err := h.Save(rt.DFS); err != nil {
		t.Fatal(err)
	}
	h2 := NewHistory()
	if err := h2.Load(rt.DFS); err != nil {
		t.Fatal(err)
	}
	if h2.Len() != 2 {
		t.Fatalf("loaded %d entries", h2.Len())
	}
	w, ok := h2.Winner("wordcount")
	if !ok || w != ModeUPlus {
		t.Fatalf("winner = %v/%v", w, ok)
	}
	e, _ := h2.Entry("wordcount")
	if e.Runs != 2 {
		t.Fatalf("runs = %d", e.Runs)
	}
	if got, want := h2.Entries(), h.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("entries lost in round-trip: %+v vs %+v", got, want)
	}
	// Save twice (overwrite path).
	if err := h2.Save(rt.DFS); err != nil {
		t.Fatal(err)
	}
	// Loading from an empty DFS is fine.
	h3 := NewHistory()
	rt2 := newRuntime(t, topology.A3, 2, NewDPlusScheduler(FullDPlus()))
	if err := h3.Load(rt2.DFS); err != nil || h3.Len() != 0 {
		t.Fatalf("empty load: %v / %d", err, h3.Len())
	}
}

func TestUPlusOptionsMapsPerWave(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	node := topology.NewNode(eng, 1, "rack-0", topology.A3)
	if got := FullUPlus().MapsPerWave(node); got != 4 {
		t.Fatalf("MapsPerWave = %d, want 4 (A3 cores × 1)", got)
	}
	if got := (UPlusOptions{ThreadsPerCore: 2}).MapsPerWave(node); got != 8 {
		t.Fatalf("MapsPerWave = %d, want 8", got)
	}
	if got := (UPlusOptions{}).MapsPerWave(node); got != 1 {
		t.Fatalf("sequential MapsPerWave = %d, want 1", got)
	}
}

// observedNames runs one WordCount with a metrics registry attached to the
// runtime and the RM and returns the series names the run minted.
func observedNames(t *testing.T, sched yarn.Scheduler, submit func(rt *mapreduce.Runtime, spec *mapreduce.JobSpec, done func(*mapreduce.Result))) (*metrics.Registry, []string) {
	t.Helper()
	rt := newRuntime(t, topology.A3, 4, sched)
	reg := metrics.New()
	rt.Reg, rt.RM.Reg = reg, reg
	names, _ := stageInput(t, rt, 2, 256<<10)
	var res *mapreduce.Result
	rt.Eng.After(0, func() {
		submit(rt, testWCSpec(names, "/out"), func(r *mapreduce.Result) { res = r; rt.RM.Stop() })
	})
	rt.Eng.RunUntil(horizon)
	if res == nil || res.Err != nil {
		t.Fatalf("job failed: %+v", res)
	}
	return reg, reg.Names()
}

// The uplus_cache_bytes gauge belongs to runs that admitted bytes to the U+
// memory cache. The in-AM executor with zero options is stock Uber: it must
// mint exactly the series stock Uber always minted — no zero-valued cache
// gauge — whether cold-submitted or dispatched to a pooled AM.
func TestInAMCacheGaugeOnlyWhenAdmitted(t *testing.T) {
	t.Parallel()
	pooled := func(opts UPlusOptions) func(*mapreduce.Runtime, *mapreduce.JobSpec, func(*mapreduce.Result)) {
		return func(rt *mapreduce.Runtime, spec *mapreduce.JobSpec, done func(*mapreduce.Result)) {
			f := NewFramework(rt, 3, opts)
			f.Start(func() { f.Submit(ModeUPlus, spec, done) })
		}
	}
	_, uber := observedNames(t, yarn.NewStockScheduler(), func(rt *mapreduce.Runtime, spec *mapreduce.JobSpec, done func(*mapreduce.Result)) {
		mapreduce.Submit(rt, spec, mapreduce.ModeUber, done)
	})
	// Captured on the pre-consolidation mapreduce.UberAM.
	want := []string{
		"mapreduce_shuffle_fetch_total{kind=permap,transport=disk}",
		"mapreduce_task_attempts_total{kind=map,outcome=failed}",
		"mapreduce_task_attempts_total{kind=map,outcome=ok}",
		"mapreduce_task_attempts_total{kind=reduce,outcome=failed}",
		"mapreduce_task_attempts_total{kind=reduce,outcome=ok}",
		"yarn_allocations_total{locality=ANY,sched=hadoop-capacity}",
		"yarn_allocations_total{locality=NODE_LOCAL,sched=hadoop-capacity}",
		"yarn_allocations_total{locality=RACK_LOCAL,sched=hadoop-capacity}",
		"yarn_am_heartbeats_total",
		"yarn_containers_launched_total{node=node-02}",
	}
	if !slices.Equal(uber, want) {
		t.Errorf("stock Uber minted series\n got  %q\n want %q", uber, want)
	}
	if _, zero := observedNames(t, NewDPlusScheduler(FullDPlus()), pooled(UPlusOptions{})); slices.Contains(zero, "uplus_cache_bytes") {
		t.Error("zero-options in-AM run minted uplus_cache_bytes without admitting a byte")
	}
	reg, full := observedNames(t, NewDPlusScheduler(FullDPlus()), pooled(FullUPlus()))
	if !slices.Contains(full, "uplus_cache_bytes") {
		t.Error("U+ run admitted outputs to the cache but never touched uplus_cache_bytes")
	}
	if v := reg.Get("uplus_cache_bytes"); v != 0 {
		t.Errorf("uplus_cache_bytes = %d after the job ended, want 0", v)
	}
}
