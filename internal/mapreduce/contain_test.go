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
// panics on one split, a map flush that panics after one split's last
// record, a reduce that panics on one key, and a partitioner out of range,
// which the map side's own check turns into a panic — and, under a shuffle
// service, a combiner that panics when the service re-combines a node's
// map outputs (values past the map side's "1" are counts it combined).
var poisons = []struct {
	name    string
	kind    profiler.TaskKind
	cause   string // the panic value as fmt.Sprint prints it
	at      string // the file of the frame that raised it
	service bool   // the poison fires only under a shuffle service
	arm     func(spec *JobSpec, names []string)
}{
	{"map", profiler.MapTask, "poisoned split", "contain_test.go", false, func(spec *JobSpec, names []string) {
		mapFor := spec.MapFor
		spec.MapFor = func(file string, lane *Lane) (MapFunc, func(CountedEmit)) {
			if file == names[1] {
				return func(_, _ []byte, _ Emit) { panic("poisoned split") }, nil
			}
			return mapFor(file, lane)
		}
	}},
	{"flush", profiler.MapTask, "poisoned flush", "contain_test.go", false, func(spec *JobSpec, names []string) {
		mapFor := spec.MapFor
		spec.MapFor = func(file string, lane *Lane) (MapFunc, func(CountedEmit)) {
			mapFn, flush := mapFor(file, lane)
			if file == names[1] {
				return mapFn, func(CountedEmit) { panic("poisoned flush") }
			}
			return mapFn, flush
		}
	}},
	{"reduce", profiler.ReduceTask, `bad key "fox"`, "contain_test.go", false, func(spec *JobSpec, _ []string) {
		spec.Reduce = func(key []byte, values Values, emit Emit) {
			if string(key) == "fox" {
				panic(fmt.Sprintf("bad key %q", key))
			}
			wcTestReduce(key, values, emit)
		}
	}},
	{"partitioner", profiler.MapTask, "mapreduce: partitioner returned 2 of 2", "engine.go", false, func(spec *JobSpec, _ []string) {
		spec.NumReduces = 2
		spec.Partition = func(_ []byte, n int) int { return n }
	}},
	{"combine", profiler.MapTask, "poisoned combine", "contain_test.go", true, func(spec *JobSpec, _ []string) {
		spec.Combine = poisonedCombine("")
	}},
	// Four reduces, partitioned by key length: the service's combine of
	// partition 2 ("zebras") panics, and with partition 1 ("quick") as well
	// the lower piece's panic wins.
	{"combine-p2", profiler.MapTask, "poisoned combine of zebras", "contain_test.go", true, func(spec *JobSpec, _ []string) {
		spec.NumReduces, spec.Partition, spec.Combine = 4, byLength, poisonedCombine("zebras")
	}},
	{"combine-p1-p2", profiler.MapTask, "poisoned combine of quick", "contain_test.go", true, func(spec *JobSpec, _ []string) {
		zebras, quick := poisonedCombine("zebras"), poisonedCombine("quick")
		spec.NumReduces, spec.Partition = 4, byLength
		spec.Combine = func(key []byte, values Values, emit Emit) {
			if string(key) == "zebras" {
				zebras(key, values, emit)
			}
			quick(key, values, emit)
		}
	}},
}

// byLength partitions a key by its length.
func byLength(k []byte, n int) int { return len(k) % n }

// poisonedCombine is WordCount's reducer as a combiner that panics on a
// value past the map side's "1" — a count the map side combined, so only the
// shuffle service's combine meets one — under key, or under any key when
// key is empty.
func poisonedCombine(key string) ReduceFunc {
	cause := "poisoned combine"
	if key != "" {
		cause += " of " + key
	}
	return func(k []byte, values Values, emit Emit) {
		values.Each(func(v []byte) {
			if string(v) != "1" && (key == "" || string(k) == key) {
				panic(cause)
			}
		})
		wcTestReduce(k, values, emit)
	}
}

// nodeShuffle is the shuffle service's plan in miniature (the service
// itself, internal/shuffle, imports this package): once every map has
// committed, each node's outputs are consolidated — merged and
// re-combined on the runtime's lanes, as the service does it — and fetched
// as one unit.
type nodeShuffle struct{ rt *Runtime }

func (nodeShuffle) Register(*JobSpec, *MapOutput) {}
func (nodeShuffle) Forget(*JobSpec, *MapOutput)   {}
func (nodeShuffle) WireRatio(*JobSpec) float64    { return 1 }

func (nodeShuffle) FetchPlan(pending []*MapOutput, mapsDone bool) [][]*MapOutput {
	if !mapsDone {
		return nil
	}
	return GroupOutputsByNode(pending)
}

func (s nodeShuffle) Consolidate(spec *JobSpec, group []*MapOutput) *Consolidated {
	return s.rt.ConsolidateGroup(spec, group)
}

func (s nodeShuffle) Fetch(parent trace.SpanID, _ *JobSpec, c *Consolidated, part int, dst *topology.Node, done func(error)) {
	s.rt.ShuffleFetch(parent, c.Out, part, dst, done)
}

// TestUserPanicsFailTheirJobThroughEveryAMShape runs each poison under the
// distributed AM, stock Uber and U+, and under Uber with a shuffle service,
// which consolidates the job's three map outputs on the AM's node. The
// panic must fail its attempt, not the process: the attempt is retried up
// to MaxTaskAttempts, then the job fails with ErrTaskFailed and the panic
// value as the cause. Every failed attempt's compute span names the panic
// and the frame that raised it, and no panicking attempt leaves an output
// in the MapCache. The service's combine belongs to no attempt: its panic
// fails the job at once, and a "combine failed" mark names it. The service
// shape runs a second time on three forced lanes, where the combine's
// pieces run on pool workers: a panic there must fail the job with
// the same cause and frame.
func TestUserPanicsFailTheirJobThroughEveryAMShape(t *testing.T) {
	shapes := []struct {
		name    string
		mode    Mode
		service bool
		lanes   int // forced through UseHostLanes when positive
	}{
		{"distributed", ModeDistributed, false, 0}, {"uber", ModeUber, false, 0}, {"uplus", ModeUPlus(FullUPlus()), false, 0},
		{"shuffle-service", ModeUber, true, 0}, {"shuffle-service-lanes", ModeUber, true, 3},
	}
	frames := map[string]string{} // the service shape's At, by poison
	for _, sh := range shapes {
		for _, p := range poisons {
			if p.service && !sh.service {
				continue
			}
			t.Run(sh.name+"/"+p.name, func(t *testing.T) {
				if sh.lanes > 0 {
					t.Cleanup(UseHostLanes(sh.lanes))
				}
				rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
				rt.Trace = trace.New(rt.Eng, 0)
				rt.MapCache = NewMapCache(64 << 20)
				if sh.service {
					rt.Shuffle = nodeShuffle{rt}
				}
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
				if at, ok := frames[p.name]; ok && ae.At != at {
					t.Fatalf("raised at %q, where the service shape's was raised at %q", ae.At, at)
				} else if sh.service {
					frames[p.name] = ae.At
				}
				// The task the error names failed exactly MaxTaskAttempts
				// times — the service's combine, no attempt at all. Only
				// the partitioner poisons every split, so only it may fail
				// other tasks' attempts meanwhile.
				attempts, span := rt.Params.MaxTaskAttempts, "compute"
				if p.service {
					attempts, span = 0, "combine failed"
				}
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
				if charged != attempts {
					t.Fatalf("%s %d failed %d attempts, want %d", p.kind, ae.Index, charged, attempts)
				}
				spans := 0
				for _, sp := range rt.Trace.Spans() {
					if sp.Name == span && spanAttr(sp, "panic") == p.cause && spanAttr(sp, "at") == ae.At {
						spans++
					}
				}
				if p.service && spans != 1 {
					t.Fatalf("%d %q marks name the panic, want 1", spans, span)
				}
				// Attempts still running when the job failed panic too, but
				// only into the trace: the failed job charges no more.
				if spans < failed {
					t.Fatalf("%d compute spans name the panic, want one per failed attempt (%d)", spans, failed)
				}
				for k := range rt.MapCache.maps.entries {
					if p.name == "partitioner" || (p.name == "map" || p.name == "flush") && k.file == names[1] {
						t.Errorf("the MapCache holds %s, whose map attempts panicked", k.file)
					}
				}
				if n := len(rt.MapCache.reduces.entries); n != 0 {
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
		if v, died := contain(func() int { x++; return x }); died != nil || v != x {
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
