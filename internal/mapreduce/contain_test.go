package mapreduce

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mrapid/internal/profiler"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
	"mrapid/internal/yarn"
)

// poisons are the bad user code every AM shape must contain: a map that
// panics on one split, a reduce that panics on one key, and a partitioner
// out of range, which the map side's own check turns into a panic.
var poisons = []struct {
	name  string
	kind  profiler.TaskKind
	cause string // the panic value as fmt.Sprint prints it
	at    string // the file of the frame that raised it
	arm   func(spec *JobSpec, names []string)
}{
	{"map", profiler.MapTask, "poisoned split", "contain_test.go", func(spec *JobSpec, names []string) {
		spec.MapFor = func(file string) MapFunc {
			if file == names[1] {
				return func(_, _ []byte, _ Emit) { panic("poisoned split") }
			}
			return nil
		}
	}},
	{"reduce", profiler.ReduceTask, `bad key "fox"`, "contain_test.go", func(spec *JobSpec, _ []string) {
		spec.Reduce = func(key []byte, values Values, emit Emit) {
			if string(key) == "fox" {
				panic(fmt.Sprintf("bad key %q", key))
			}
			wcTestReduce(key, values, emit)
		}
	}},
	{"partitioner", profiler.MapTask, "mapreduce: partitioner returned 2 of 2", "engine.go", func(spec *JobSpec, _ []string) {
		spec.NumReduces = 2
		spec.Partition = func(_ []byte, n int) int { return n }
	}},
}

// TestUserPanicsFailTheirJobThroughEveryAMShape runs each poison under the
// distributed AM, stock Uber and U+. The panic must fail its attempt, not
// the process: the attempt is retried up to MaxTaskAttempts, then the job
// fails with ErrTaskFailed and the panic value as the cause. Every failed
// attempt's compute span names the panic and the frame that raised it, and
// no panicking attempt leaves an output in the MapCache.
func TestUserPanicsFailTheirJobThroughEveryAMShape(t *testing.T) {
	shapes := []struct {
		name string
		mode Mode
	}{{"distributed", ModeDistributed}, {"uber", ModeUber}, {"uplus", ModeUPlus(FullUPlus())}}
	for _, sh := range shapes {
		for _, p := range poisons {
			t.Run(sh.name+"/"+p.name, func(t *testing.T) {
				rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
				rt.Trace = trace.New(rt.Eng, 0)
				rt.MapCache = NewMapCache(64 << 20)
				names, _ := stageWordCountInput(t, rt, 3, 64<<10)
				spec := wcSpec(names, "/out")
				spec.ClosureSig = "poison " + p.name // reusable, so the cache is consulted
				p.arm(spec, names)
				res := runJob(t, rt, spec, sh.mode)

				var ae *AttemptError
				if !errors.Is(res.Err, ErrTaskFailed) || !errors.As(res.Err, &ae) {
					t.Fatalf("job error %v, want a failed task attempt", res.Err)
				}
				if fmt.Sprint(ae.Cause) != p.cause || !strings.Contains(ae.At, p.at) {
					t.Fatalf("cause %q at %q, want %q raised in %s", ae.Cause, ae.At, p.cause, p.at)
				}
				// The task the error names failed exactly MaxTaskAttempts
				// times. Only the partitioner poisons every split, so only
				// it may fail other tasks' attempts meanwhile.
				failed, charged := 0, 0
				for _, tp := range res.Profile.Tasks {
					switch {
					case !tp.Failed:
					case tp.Kind == p.kind && tp.Index == ae.Index:
						failed++
						charged++
					case p.name == "partitioner":
						failed++
					default:
						t.Errorf("failed attempt of %s %d, want only %s %d", tp.Kind, tp.Index, p.kind, ae.Index)
					}
				}
				if charged != rt.Params.MaxTaskAttempts {
					t.Fatalf("%s %d failed %d attempts, want MaxTaskAttempts = %d", p.kind, ae.Index, charged, rt.Params.MaxTaskAttempts)
				}
				spans := 0
				for _, sp := range rt.Trace.Spans() {
					if sp.Name == "compute" && spanAttr(sp, "panic") == p.cause && spanAttr(sp, "at") == ae.At {
						spans++
					}
				}
				// Attempts still running when the job failed panic too, but
				// only into the trace: the failed job charges no more.
				if spans < failed {
					t.Fatalf("%d compute spans name the panic, want one per failed attempt (%d)", spans, failed)
				}
				for _, file := range cachedFiles(rt.MapCache) {
					if p.name == "partitioner" || p.name == "map" && file == names[1] {
						t.Errorf("the MapCache holds %s, whose map attempts panicked", file)
					}
				}
				if n := cachedReduces(rt.MapCache); n != 0 {
					t.Errorf("the MapCache holds %d reduce outputs of a job whose reduce never succeeded", n)
				}
			})
		}
	}
}

// TestContainAllocatesNothing: containment costs the success path no
// allocation.
func TestContainAllocatesNothing(t *testing.T) {
	x := 0
	allocs := testing.AllocsPerRun(100, func() {
		if v, died := contain(false, func() int { x++; return x }); died != nil || v != x {
			t.Fatalf("contain returned %d, %v", v, died)
		}
	})
	if allocs != 0 {
		t.Fatalf("contain allocates %.1f times per successful call", allocs)
	}
}

func spanAttr(sp *trace.Span, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// cachedFiles lists the input files the MapCache holds map outputs of.
func cachedFiles(c *MapCache) []string {
	var files []string
	for i := range c.shards {
		for k := range c.shards[i].entries {
			files = append(files, k.file)
		}
	}
	return files
}
