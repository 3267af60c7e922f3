package core

import (
	"errors"
	"fmt"
	"testing"

	"mrapid/internal/mapreduce"
	"mrapid/internal/pin"
	"mrapid/internal/topology"
)

// TestPoisonedTenantFailsAlone puts a tenant whose user code panics beside
// a healthy one in one JobServer. Each poisoned job — D+, U+ and raced,
// with a reduce that panics on one key or a map that panics on one split —
// must fail alone after exactly MaxTaskAttempts failed attempts, with
// ErrTaskFailed; the process survives, the healthy tenant's outputs hash
// as they do without the poison beside them, and the cluster ends clean:
// the RM's view and every byte budget (checked at teardown) and a full AM
// pool.
func TestPoisonedTenantFailsAlone(t *testing.T) {
	t.Parallel()
	alone := runBesidePoison(t, false)
	beside := runBesidePoison(t, true)
	if len(alone) != 3 || len(beside) != 3 {
		t.Fatalf("%d healthy outputs alone, %d beside the poison, want 3", len(alone), len(beside))
	}
	for out, digest := range alone {
		if beside[out] != digest {
			t.Errorf("healthy output %s hashes %s beside the poison, %s alone", out, beside[out], digest)
		}
	}
}

// runBesidePoison runs the healthy tenant's D+, U+ and raced WordCounts,
// and with poison the poisoned tenant's four jobs interleaved with them,
// and returns the healthy outputs' digests by path.
func runBesidePoison(t *testing.T, poison bool) map[string]string {
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f, s := startJobServer(t, rt, 3, JobServerConfig{})
	names, input := stageInput(t, rt, 4, 256<<10)

	panicMap := func(spec *mapreduce.JobSpec) {
		spec.MapFor = func(file string) mapreduce.MapFunc {
			if file == names[1] {
				return func(_, _ []byte, _ mapreduce.Emit) { panic("poisoned split") }
			}
			return nil
		}
	}
	panicReduce := func(spec *mapreduce.JobSpec) {
		reduce := spec.Reduce
		spec.Reduce = func(key []byte, values mapreduce.Values, emit mapreduce.Emit) {
			if string(key) == "dolor" {
				panic("poisoned key")
			}
			reduce(key, values, emit)
		}
	}
	type job struct {
		tenant string
		mode   ModeKind
		arm    func(*mapreduce.JobSpec)
	}
	jobs := []job{{"healthy", ModeDPlus, nil}, {"healthy", ModeUPlus, nil}, {"healthy", ModeSpeculative, nil}}
	if poison {
		jobs = []job{
			{"poison", ModeDPlus, panicReduce}, jobs[0],
			{"poison", ModeUPlus, panicMap}, jobs[1],
			{"poison", ModeSpeculative, panicMap}, jobs[2],
			{"poison", ModeSpeculative, panicReduce},
		}
	}

	completed := 0
	rt.Eng.After(0, func() {
		for i, j := range jobs {
			name := fmt.Sprintf("%s-%s-%d", j.tenant, j.mode, i)
			spec := testWCSpec(names, "/out/"+name)
			spec.Name, spec.JobKey = name, name // no history: every raced job races
			if j.arm != nil {
				j.arm(spec)
			}
			err := s.SubmitAs(j.tenant, "", j.mode, spec, func(res *mapreduce.Result) {
				switch {
				case j.arm == nil && res.Err != nil:
					t.Errorf("healthy job %s failed: %v", name, res.Err)
				case j.arm != nil && !errors.Is(res.Err, mapreduce.ErrTaskFailed):
					t.Errorf("poisoned job %s ended with %v, want a failed task", name, res.Err)
				case j.arm != nil && failedAttempts(res.Profile) != rt.Params.MaxTaskAttempts:
					t.Errorf("poisoned job %s recorded %d failed attempts, want MaxTaskAttempts = %d",
						name, failedAttempts(res.Profile), rt.Params.MaxTaskAttempts)
				}
				if completed++; completed == len(jobs) {
					rt.RM.Stop()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	rt.Eng.RunUntil(horizon)
	if completed != len(jobs) {
		t.Fatalf("%d of %d jobs completed", completed, len(jobs))
	}
	if f.Pool.Idle() != f.Pool.Size() {
		t.Errorf("pool idle = %d of %d at teardown", f.Pool.Idle(), f.Pool.Size())
	}
	if err := f.CheckResidency(); err != nil {
		t.Error(err)
	}

	digests := map[string]string{}
	for i, j := range jobs {
		if j.arm == nil {
			out := fmt.Sprintf("/out/%s-%s-%d", j.tenant, j.mode, i)
			verifyWC(t, rt, out, input)
			data, err := rt.DFS.Contents(mapreduce.PartFileName(out, 0))
			if err != nil {
				t.Fatal(err)
			}
			digests[fmt.Sprintf("%s-%s", j.tenant, j.mode)] = pin.Digest(data)
		}
	}
	return digests
}
