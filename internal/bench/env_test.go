package bench

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"mrapid/internal/core"
	"mrapid/internal/mapreduce"
	"mrapid/internal/query"
	"mrapid/internal/sim"
	"mrapid/internal/workloads"
)

// earlyFault crashes a worker half a second after cluster-ready — well inside
// the ≥ 4 s the AM pool takes to come up, which is where it used to land on
// the paths that assembled their framework by hand.
var earlyFault = []mapreduce.NodeFault{{Node: "node-02", At: 500 * time.Millisecond, RestartAfter: 10 * time.Second}}

// TestNodeFaultsCountFromClusterReady pins NewEnv's order for every shape of
// variant the drivers use: the pool is up and every worker alive when NewEnv
// returns, and the crash fires At after that instant, not before.
func TestNodeFaultsCountFromClusterReady(t *testing.T) {
	t.Parallel()
	variants := map[string]Variant{"single job": VariantDPlus(), "workload": VariantDPlus(), "queries": VariantDPlus()}
	w := variants["workload"]
	w.Server = &core.JobServerConfig{Queues: tenantQueues(3)}
	variants["workload"] = w
	q := variants["queries"]
	q.PoolSize = dagQueryPool
	q.Server = &core.JobServerConfig{Policy: core.PolicyWeightedFair}
	variants["queries"] = q

	for name, v := range variants {
		env, err := NewEnv(Options{NodeFaults: earlyFault}.Apply(A3x4()), v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if (v.Server != nil) != (env.Srv != nil) {
			t.Errorf("%s: JobServer built = %v", name, env.Srv != nil)
		}
		if env.FW.Pool.AliveAMs() != v.PoolSize {
			t.Errorf("%s: %d of %d pooled AMs alive at cluster-ready", name, env.FW.Pool.AliveAMs(), v.PoolSize)
		}
		victim := env.Cluster.Workers()[1]
		if victim.Name != "node-02" {
			t.Fatalf("%s: workers[1] = %s", name, victim.Name)
		}
		ready := env.Eng.Now()
		env.Eng.RunUntil(ready.Add(earlyFault[0].At) - 1)
		if !victim.Alive() {
			t.Errorf("%s: node-02 crashed before cluster-ready + %s", name, earlyFault[0].At)
		}
		env.Eng.RunUntil(ready.Add(earlyFault[0].At))
		if victim.Alive() {
			t.Errorf("%s: node-02 still alive at cluster-ready + %s", name, earlyFault[0].At)
		}
	}
}

// TestEarlyFaultUnderTheDrivers runs the same schedule through RunThroughput
// and RunQueryStream. Both used to lose the pool's bring-up to it.
func TestEarlyFaultUnderTheDrivers(t *testing.T) {
	t.Parallel()
	// The workload's recorded trace starts at cluster-ready, and the first
	// job of a burst is submitted at that instant.
	o := Options{Scale: 0.05, Seed: 3, NodeFaults: earlyFault, FlightRecorder: true}
	r, err := RunThroughput(A3x4(), WorkloadConfig{Jobs: 6, Tenants: 2, Policy: core.PolicyWeightedFair}, o)
	if err != nil {
		t.Fatal(err)
	}
	spans := r.flightEnv.Trace.Spans()
	var crashedAt sim.Time
	for _, s := range spans {
		if s.Component == "fault" && s.Name == "node crashed" {
			crashedAt = s.Start
		}
	}
	if want := spans[0].Start.Add(earlyFault[0].At); crashedAt != want {
		t.Errorf("workload: node crashed at %s, want first submission + %s = %s", crashedAt, earlyFault[0].At, want)
	}

	qs := QueryStream{Plans: []*query.Plan{dagQueryPlan(0)}}
	o = Options{Scale: 0.05, Seed: 3}
	clean, err := RunQueryStream(A3x4(), qs, o)
	if err != nil {
		t.Fatal(err)
	}
	o.NodeFaults = earlyFault
	faulty, err := RunQueryStream(A3x4(), qs, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := SameQueryRows("fault-free", clean, "faulty", faulty); err != nil {
		t.Error(err)
	}
	// A crash during the idle bring-up would be over before the query
	// arrives and leave its timeline alone.
	if faulty.Makespan <= clean.Makespan {
		t.Errorf("queries: makespan %.3fs with the crash, %.3fs without — it did not land in the run", faulty.Makespan, clean.Makespan)
	}
}

// TestGrepPatternsShareNoMapOutput: NewEnv attaches the process-wide
// MapCache, which once keyed on the program's JobKey and served a grep for
// "e" the map outputs of an earlier grep for "ab" over the same bytes. Each
// pattern's output must be the count taken straight from the input.
func TestGrepPatternsShareNoMapOutput(t *testing.T) {
	t.Parallel()
	env, err := NewEnv(A3x4(), VariantDPlus())
	if err != nil {
		t.Fatal(err)
	}
	names, err := workloads.GenerateWordCountInput(env.DFS, env.Cluster, "/in/grep-patterns",
		workloads.WordCountConfig{Files: 2, FileBytes: 32 << 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var input []byte
	for _, name := range names {
		data, err := env.DFS.Contents(name)
		if err != nil {
			t.Fatal(err)
		}
		input = append(append(input, data...), '\n')
	}
	for i, pattern := range []string{"ab", "e"} {
		out := fmt.Sprintf("/out/grep-patterns/%d", i)
		if _, err := env.Run(VariantDPlus(), workloads.GrepSearchSpec("grep-"+pattern, names, out, pattern)); err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for _, w := range strings.Fields(string(input)) {
			if strings.Contains(w, pattern) {
				counts[w]++
			}
		}
		words := make([]string, 0, len(counts))
		for w := range counts {
			words = append(words, w)
		}
		sort.Strings(words)
		var want strings.Builder
		for _, w := range words {
			fmt.Fprintf(&want, "%s\t%d\n", w, counts[w])
		}
		got, err := env.DFS.Contents(mapreduce.PartFileName(out, 0))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want.String() {
			t.Fatalf("grep %q wrote %d bytes, a direct count gives %d", pattern, len(got), want.Len())
		}
	}
}

// reuseRun runs a two-reduce WordCount under v in a fresh env attached to
// cache (nil: none) and returns its part files and completion time.
func reuseRun(t *testing.T, setup ClusterSetup, v Variant, cache *mapreduce.MapCache) ([][]byte, float64) {
	t.Helper()
	env, err := NewEnv(setup, v)
	if err != nil {
		t.Fatal(err)
	}
	env.RT.MapCache = cache
	names, err := workloads.GenerateWordCountInput(env.DFS, env.Cluster, "/in/reuse",
		workloads.WordCountConfig{Files: 8, FileBytes: 32 << 10, Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	spec := workloads.WordCountSpec("reuse", names, "/out/reuse", false)
	spec.NumReduces = 2
	res, err := env.Run(v, spec)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]byte, spec.NumReduces)
	for p := range parts {
		if parts[p], err = env.DFS.Contents(mapreduce.PartFileName(spec.OutputFile, p)); err != nil {
			t.Fatal(err)
		}
	}
	return parts, res.Elapsed()
}

// TestReduceReuseAcrossVariants: the four modes of one figure point, each
// in a fresh env sharing one cache, compute each reduce once — one miss
// and three hits per partition — and commit the bytes and the completion
// times of runs without the cache.
func TestReduceReuseAcrossVariants(t *testing.T) {
	t.Parallel()
	cache := mapreduce.NewMapCache(1 << 28)
	for _, v := range StandardVariants() {
		want, wantAt := reuseRun(t, A3x4(), v, nil)
		got, at := reuseRun(t, A3x4(), v, cache)
		if at != wantAt {
			t.Errorf("%s: done in %.6fs with the cache, %.6fs without", v.Name, at, wantAt)
		}
		for p := range want {
			if string(got[p]) != string(want[p]) {
				t.Errorf("%s: partition %d differs from the run without the cache", v.Name, p)
			}
		}
	}
	if cache.ReduceMisses() != 2 || cache.ReduceHits() != 6 {
		t.Fatalf("reduce lookups over 4 modes × 2 partitions: %d misses, %d hits; want 2, 6", cache.ReduceMisses(), cache.ReduceHits())
	}
}

// TestReduceReuseSkipsConsolidatedInputs: the shuffle service hands a
// reduce merged outputs that no map computed, so no reduce is looked up,
// while the maps still are.
func TestReduceReuseSkipsConsolidatedInputs(t *testing.T) {
	t.Parallel()
	setup := A3x4()
	setup.Params.ShuffleService = true
	cache := mapreduce.NewMapCache(1 << 28)
	for range 2 {
		reuseRun(t, setup, VariantHadoop(), cache)
	}
	if cache.Hits() == 0 || cache.ReduceHits()+cache.ReduceMisses() != 0 {
		t.Fatalf("%d map hits, %d reduce lookups; want map hits and no reduce lookup", cache.Hits(), cache.ReduceHits()+cache.ReduceMisses())
	}
}
