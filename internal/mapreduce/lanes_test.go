package mapreduce_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"testing"

	"mrapid/internal/bench"
	"mrapid/internal/mapreduce"
	"mrapid/internal/query"
	"mrapid/internal/sim"
	"mrapid/internal/workloads"
)

// laneRun is what one simulation shows of its run: the virtual completion
// time, a digest of the committed output, and the Chrome trace.
type laneRun struct {
	elapsed float64
	digest  uint64
	trace   []byte
}

// sameRun fails t unless the runs inline and on lanes agree on everything.
func sameRun(t *testing.T, what string, inline, lanes laneRun) {
	t.Helper()
	if inline.elapsed != lanes.elapsed || inline.digest != lanes.digest {
		t.Errorf("%s: inline done at %.9fs with output %016x, on lanes at %.9fs with %016x",
			what, inline.elapsed, inline.digest, lanes.elapsed, lanes.digest)
	}
	if !bytes.Equal(inline.trace, lanes.trace) {
		t.Errorf("%s: the Chrome trace differs (%d bytes inline, %d on lanes)", what, len(inline.trace), len(lanes.trace))
	}
}

// onLanes runs f with every new Runtime on n host lanes (0: inline).
func onLanes[T any](n int, f func() T) T {
	defer mapreduce.UseHostLanes(n)()
	return f()
}

// newLaneEnv is a traced A3x4 simulation of the variant with a MapCache of
// its own, so that every map and reduce body runs.
func newLaneEnv(t *testing.T, v bench.Variant) *bench.Env {
	t.Helper()
	env, err := bench.NewEnv(bench.A3x4(), v)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	env.RT.MapCache = mapreduce.NewMapCache(1 << 30)
	env.EnableObservability(0)
	return env
}

func chromeTrace(t *testing.T, env *bench.Env) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := env.Trace.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// wordCountOnLanes runs WordCount with its combiner, six maps and three
// reduces, under the variant; arm, when set, edits the spec first.
func wordCountOnLanes(t *testing.T, v bench.Variant, arm func(*mapreduce.JobSpec, []string)) (laneRun, error) {
	env := newLaneEnv(t, v)
	names, err := workloads.GenerateWordCountInput(env.DFS, env.Cluster, "/in/wc", workloads.WordCountConfig{
		Files: 6, FileBytes: 192 << 10, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := workloads.WordCountSpec("wc-lanes", names, "/out/wc", true)
	spec.NumReduces = 3
	if arm != nil {
		arm(spec, names)
	}
	res, err := env.Run(v, spec)
	if err != nil {
		return laneRun{}, err
	}
	if res.Err != nil {
		return laneRun{}, res.Err
	}
	h := fnv.New64a()
	for p := range spec.NumReduces {
		data, err := env.DFS.Contents(mapreduce.PartFileName(spec.OutputFile, p))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	return laneRun{res.Elapsed(), h.Sum64(), chromeTrace(t, env)}, nil
}

// queryOnLanes runs the warehouse query — two group-by branches, a join and
// an order-by — through the DAG runner with its branches overlapping.
func queryOnLanes(t *testing.T) laneRun {
	v := bench.VariantDPlus()
	v.PoolSize = 6
	env := newLaneEnv(t, v)
	cat := query.NewCatalog(env.DFS, env.Cluster)
	for _, tab := range []struct {
		name   string
		schema query.Schema
		rows   int
		files  int
	}{{"sales", query.Schema{"id", "cell", "amount"}, 3000, 4}, {"returns", query.Schema{"rid", "cell", "refund"}, 1500, 3}} {
		rows := make([]query.Row, tab.rows)
		for i := range rows {
			rows[i] = query.Row{strconv.Itoa(i), fmt.Sprintf("c%04d", i*7919%400), strconv.Itoa(i * 31 % 1000)}
		}
		if _, err := cat.Create(tab.name, tab.schema, rows, tab.files); err != nil {
			t.Fatal(err)
		}
	}
	dr, err := query.NewDAGRunner(env.FW, nil, cat)
	if err != nil {
		t.Fatal(err)
	}
	dr.Mode = query.ViaDPlus
	var got laneRun
	var runErr error
	env.Eng.After(0, func() {
		start := env.Eng.Now()
		dr.Run(bench.WarehouseQuery(250, 40, true), func(res *query.Result, err error) {
			env.RM.Stop()
			if runErr = err; err != nil {
				return
			}
			got.elapsed = env.Eng.Now().Sub(start).Seconds()
			h := fnv.New64a()
			for _, r := range res.Rows {
				for _, f := range r {
					h.Write([]byte(f))
					h.Write([]byte{0})
				}
			}
			got.digest = h.Sum64()
		})
	})
	env.Eng.RunUntil(sim.Time(1 << 42))
	if runErr != nil || got.digest == 0 {
		t.Fatalf("query: %v (finished: %t)", runErr, got.digest != 0)
	}
	got.trace = chromeTrace(t, env)
	return got
}

// Task bodies on host lanes change nothing a simulation shows: a WordCount
// with a combiner over six maps and three reduces — distributed, and as a
// speculative D+/U+ race whose two modes map the same splits — and a query
// DAG finish at the same virtual instants, commit the same bytes and trace
// the same spans inline and on lanes.
func TestHostLanesChangeNothingVirtual(t *testing.T) {
	for _, v := range []bench.Variant{bench.VariantHadoop(), bench.VariantSpeculative()} {
		run := func() laneRun {
			r, err := wordCountOnLanes(t, v, nil)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		sameRun(t, "wordcount/"+v.Name, onLanes(0, run), onLanes(3, run))
	}
	run := func() laneRun { return queryOnLanes(t) }
	sameRun(t, "query", onLanes(0, run), onLanes(3, run))
}

// A map that panics on a lane fails its attempt as it does inline: the job
// fails with ErrTaskFailed after every attempt, and the error names the
// same panic and raising frame.
func TestPanickingMapOnALaneFailsAlike(t *testing.T) {
	poison := func(spec *mapreduce.JobSpec, names []string) {
		mapFor := spec.MapFor
		spec.MapFor = func(file string, lane *mapreduce.Lane) (mapreduce.MapFunc, func(mapreduce.CountedEmit)) {
			if file == names[2] {
				return func(_, _ []byte, _ mapreduce.Emit) { panic("poisoned split") }, nil
			}
			return mapFor(file, lane)
		}
	}
	run := func() error {
		_, err := wordCountOnLanes(t, bench.VariantHadoop(), poison)
		return err
	}
	inline, lanes := onLanes(0, run), onLanes(3, run)
	var ae *mapreduce.AttemptError
	if !errors.Is(lanes, mapreduce.ErrTaskFailed) || !errors.As(lanes, &ae) || ae.At == "" {
		t.Fatalf("on lanes: %v, want a failed task naming the panic's frame", lanes)
	}
	if inline == nil || inline.Error() != lanes.Error() {
		t.Fatalf("inline: %v\non lanes: %v", inline, lanes)
	}
}

// teraSortOnLanes runs a 40 000-row TeraSort into one reduce, which a body
// on lanes cuts into one key range per lane, pool workers taking ranges; arm,
// when set, edits the spec first.
func teraSortOnLanes(t *testing.T, arm func(*mapreduce.JobSpec)) (laneRun, error) {
	v := bench.VariantHadoop()
	env := newLaneEnv(t, v)
	names, err := workloads.TeraGen(env.DFS, env.Cluster, "/in/tera", workloads.TeraGenConfig{Rows: 40_000, Files: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workloads.TeraSortSpec(env.DFS, "tera-lanes", names, "/out/tera", 1)
	if err != nil {
		t.Fatal(err)
	}
	if arm != nil {
		arm(spec)
	}
	res, err := env.Run(v, spec)
	if err != nil {
		return laneRun{}, err
	}
	if res.Err != nil {
		return laneRun{}, res.Err
	}
	data, err := env.DFS.Contents(mapreduce.PartFileName(spec.OutputFile, 0))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	return laneRun{res.Elapsed(), h.Sum64(), chromeTrace(t, env)}, nil
}

// A reduce cut into key ranges on lanes commits what the one-range reduce
// inline commits, at the same virtual instants with the same trace: with
// TeraSort's reducer, whose lines fill their windows exactly, and with one
// that emits each row twice, so that every range outgrows its window.
func TestReduceRangesOnLanesChangeNothing(t *testing.T) {
	twice := func(spec *mapreduce.JobSpec) {
		spec.Reduce = func(key []byte, values mapreduce.Values, emit mapreduce.Emit) {
			values.Each(func(v []byte) {
				emit(key, v)
				emit(key, append([]byte("again "), v...))
			})
		}
		spec.ClosureSig += " twice"
	}
	for _, c := range []struct {
		name string
		arm  func(*mapreduce.JobSpec)
	}{{"terasort", nil}, {"outgrowing", twice}} {
		run := func() laneRun {
			r, err := teraSortOnLanes(t, c.arm)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		sameRun(t, c.name, onLanes(0, run), onLanes(3, run))
	}
}

// A reducer that panics in a range a pool worker may run fails its attempt as
// it does inline, and when two ranges panic the lowest one's panic is the
// one reported: the error names the same key, panic and raising frame as
// the one-range reduce's first panic. Keys are printable bytes drawn
// uniformly, so with three ranges a key starting with '0' falls in the
// first and one starting with 'x' in the last.
func TestPanickingReduceOnALaneFailsAlike(t *testing.T) {
	for _, c := range []struct {
		name   string
		poison string // first key bytes the reducer panics on
	}{{"last range", "x"}, {"first and last ranges", "0x"}} {
		poison := func(spec *mapreduce.JobSpec) {
			reduce := spec.Reduce
			spec.Reduce = func(key []byte, values mapreduce.Values, emit mapreduce.Emit) {
				if bytes.IndexByte([]byte(c.poison), key[0]) >= 0 {
					panic(fmt.Sprintf("poisoned key %q", key))
				}
				reduce(key, values, emit)
			}
			spec.ClosureSig += " poisoned " + c.poison
		}
		run := func() error {
			_, err := teraSortOnLanes(t, poison)
			return err
		}
		inline, lanes := onLanes(0, run), onLanes(3, run)
		var ae *mapreduce.AttemptError
		if !errors.Is(lanes, mapreduce.ErrTaskFailed) || !errors.As(lanes, &ae) || ae.At == "" {
			t.Fatalf("%s on lanes: %v, want a failed task naming the panic's frame", c.name, lanes)
		}
		if inline == nil || inline.Error() != lanes.Error() {
			t.Fatalf("%s inline: %v\non lanes: %v", c.name, inline, lanes)
		}
	}
}
