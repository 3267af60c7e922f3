package mapreduce

import (
	"bytes"
	"errors"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"mrapid/internal/profiler"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

func splitWords(data []byte) []string {
	var out []string
	for _, w := range bytes.Fields(data) {
		out = append(out, string(w))
	}
	return out
}

func parseCounts(data []byte) (map[string]int, error) {
	counts := map[string]int{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		i := bytes.IndexByte(line, '\t')
		if i < 0 {
			return nil, errors.New("malformed line")
		}
		n, err := strconv.Atoi(string(line[i+1:]))
		if err != nil {
			return nil, err
		}
		counts[string(line[:i])] = n
	}
	return counts, nil
}

// failOnce returns an injector that crashes exactly the given attempt
// halfway through its compute.
func failOnce(kind string, index, attempt int) *FaultInjector {
	fi := new(FaultInjector)
	fi.Fail(kind, index, attempt, 0.5)
	return fi
}

func TestAttemptErrorUnwraps(t *testing.T) {
	err := &AttemptError{Kind: "map", Index: 3, Attempt: 1}
	if !errors.Is(err, ErrTaskFailed) {
		t.Fatal("AttemptError does not unwrap to ErrTaskFailed")
	}
	if got, want := err.Error(), "mapreduce: map task 3 attempt 1 failed"; got != want {
		t.Fatalf("scripted crash reads %q, want %q", got, want)
	}
	err.Cause, err.At = "bad record", "main.parse (main.go:7)"
	if got, want := err.Error(), "mapreduce: map task 3 attempt 1 failed: panic: bad record at main.parse (main.go:7)"; got != want {
		t.Fatalf("panicked attempt reads %q, want %q", got, want)
	}
}

func TestFailScriptsAttempts(t *testing.T) {
	fi := new(FaultInjector)
	fi.Fail("map", 3, 1, 0.25)
	if _, crash := fi.crashPoint("/out", attemptID{taskID{"map", 3}, 0}); crash {
		t.Fatal("unscripted attempt failed")
	}
	point, crash := fi.crashPoint("/out", attemptID{taskID{"map", 3}, 1})
	if !crash || point != 0.25 {
		t.Fatalf("scripted attempt = %v/%v, want true/0.25", crash, point)
	}
	if _, crash := fi.crashPoint("/out", attemptID{taskID{"reduce", 3}, 1}); crash {
		t.Fatal("script leaked across task kinds")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Fail accepted point=1 (task would complete before dying)")
		}
	}()
	fi.Fail("map", 0, 0, 1)
}

// TestNilInjectorNeverFails holds that a nil injector and an empty script
// crash no map or reduce attempt.
func TestNilInjectorNeverFails(t *testing.T) {
	mapAttempt := attemptID{taskID{"map", 0}, 0}
	reduceAttempt := attemptID{taskID{"reduce", 0}, 0}
	var nilFI *FaultInjector
	if _, crash := nilFI.crashPoint("/out", mapAttempt); crash {
		t.Fatal("nil injector failed a map")
	}
	if _, crash := nilFI.crashPoint("/out", reduceAttempt); crash {
		t.Fatal("nil injector failed a reduce")
	}
	fi := new(FaultInjector)
	if _, crash := fi.crashPoint("/out", mapAttempt); crash {
		t.Fatal("empty script failed a map")
	}
	if _, crash := fi.crashPoint("/out", reduceAttempt); crash {
		t.Fatal("empty script failed a reduce")
	}
}

// TestJobFilterScopesInjection holds that a JobFilter scopes the script to
// the jobs whose output file it accepts, and a nil filter accepts every job.
func TestJobFilterScopesInjection(t *testing.T) {
	mapAttempt := attemptID{taskID{"map", 0}, 0}
	fi := new(FaultInjector)
	fi.Fail("map", 0, 0, 0.5)
	fi.JobFilter = func(out string) bool { return out == "/out.__uplus" }
	if _, crash := fi.crashPoint("/out.__dplus", mapAttempt); crash {
		t.Fatal("filtered-out job was injected")
	}
	if _, crash := fi.crashPoint("/out.__uplus", mapAttempt); !crash {
		t.Fatal("accepted job was not injected")
	}
	if _, crash := fi.crashPoint("/out.__dplus", attemptID{taskID{"reduce", 0}, 0}); crash {
		t.Fatal("filtered-out reduce was injected")
	}
	fi.JobFilter = nil
	if _, crash := fi.crashPoint("/anything", mapAttempt); !crash {
		t.Fatal("nil filter should accept every job")
	}
}

// distributedJobWithFaults runs a small distributed WordCount with the
// given injector and returns the result plus the profile.
func distributedJobWithFaults(t *testing.T, fi *FaultInjector) *Result {
	t.Helper()
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	rt.Faults = fi
	names, all := stageWordCountInput(t, rt, 4, 256<<10)
	res := runJob(t, rt, wcSpec(names, "/out"), ModeDistributed)
	if res.Err == nil {
		verifyWordCount(t, rt, "/out", all)
	}
	return res
}

func TestMapFailureRetriedOnFreshContainer(t *testing.T) {
	fi := failOnce("map", 2, 0)
	res := distributedJobWithFaults(t, fi)
	if res.Err != nil {
		t.Fatalf("job failed despite retry budget: %v", res.Err)
	}
	if fi.Injected != 1 {
		t.Fatalf("injected = %d", fi.Injected)
	}
	var failed, retried int
	for _, tp := range res.Profile.Tasks {
		if tp.Kind != profiler.MapTask || tp.Index != 2 {
			continue
		}
		if tp.Failed {
			failed++
		} else if tp.Attempt == 1 {
			retried++
		}
	}
	if failed != 1 || retried != 1 {
		t.Fatalf("profile records: failed=%d retried=%d", failed, retried)
	}
}

func TestMapFailureExhaustsAttempts(t *testing.T) {
	fi := new(FaultInjector)
	for attempt := 0; attempt < 8; attempt++ {
		fi.Fail("map", 1, attempt, 0.3)
	}
	res := distributedJobWithFaults(t, fi)
	if res.Err == nil {
		t.Fatal("job succeeded despite permanent task failure")
	}
	if !errors.Is(res.Err, ErrTaskFailed) {
		t.Fatalf("error %v does not wrap ErrTaskFailed", res.Err)
	}
}

func TestReduceFailureRetried(t *testing.T) {
	fi := failOnce("reduce", 0, 0)
	res := distributedJobWithFaults(t, fi)
	if res.Err != nil {
		t.Fatalf("job failed: %v", res.Err)
	}
	var reduceAttempts int
	for _, tp := range res.Profile.Tasks {
		if tp.Kind == profiler.ReduceTask {
			reduceAttempts++
		}
	}
	if reduceAttempts != 2 {
		t.Fatalf("reduce attempts recorded = %d, want 2 (failed + success)", reduceAttempts)
	}
}

func TestUberModeRetriesInPlace(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	rt.Faults = failOnce("map", 0, 0)
	names, all := stageWordCountInput(t, rt, 2, 128<<10)
	res := runJob(t, rt, wcSpec(names, "/out"), ModeUber)
	if res.Err != nil {
		t.Fatalf("uber job failed: %v", res.Err)
	}
	verifyWordCount(t, rt, "/out", all)
	if rt.Faults.Injected != 1 {
		t.Fatalf("injected = %d", rt.Faults.Injected)
	}
}

func TestFailureCostsTime(t *testing.T) {
	clean := distributedJobWithFaults(t, nil)
	faulty := distributedJobWithFaults(t, failOnce("map", 0, 0))
	if clean.Err != nil || faulty.Err != nil {
		t.Fatalf("jobs failed: %v / %v", clean.Err, faulty.Err)
	}
	if faulty.Elapsed() <= clean.Elapsed() {
		t.Fatalf("failure was free: clean %.2fs, faulty %.2fs", clean.Elapsed(), faulty.Elapsed())
	}
}

// Property: under random crash scripts below certainty, jobs either finish
// with correct output or report a task-failure error — never hang, never
// silently corrupt. Each case draws its script from its own seed: every
// attempt of the three maps and the reduce that could run crashes with the
// case's rate, at a random point of its compute.
func TestQuickRandomFailures(t *testing.T) {
	f := func(seed int64, prob8 uint8) bool {
		prob := float64(prob8%60) / 100 // 0–0.59 per-attempt failure rate
		rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
		rng := rand.New(rand.NewSource(seed))
		fi := new(FaultInjector)
		for _, task := range []taskID{{"map", 0}, {"map", 1}, {"map", 2}, {"reduce", 0}} {
			for attempt := 0; attempt < rt.Params.MaxTaskAttempts; attempt++ {
				if rng.Float64() < prob {
					fi.Fail(task.kind, task.index, attempt, rng.Float64())
				}
			}
		}
		rt.Faults = fi
		names, all := stageWordCountInput(t, rt, 3, 64<<10)
		var res *Result
		rt.Eng.After(0, func() {
			Submit(rt, wcSpec(names, "/out"), ModeDistributed, func(r *Result) {
				res = r
				rt.RM.Stop()
			})
		})
		rt.Eng.RunUntil(horizon)
		if res == nil {
			return false // hung
		}
		if res.Err != nil {
			return errors.Is(res.Err, ErrTaskFailed)
		}
		want := map[string]int{}
		for _, w := range splitWords(all) {
			want[w]++
		}
		data, err := rt.DFS.Contents(PartFileName("/out", 0))
		if err != nil {
			return false
		}
		got, err := parseCounts(data)
		if err != nil || len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
