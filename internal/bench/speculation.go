package bench

import (
	"fmt"

	"mrapid/internal/core"
	"mrapid/internal/workloads"
)

// SpeculationOverhead measures the paper's §III-C mechanism directly: the
// same WordCount submitted twice through the framework on one cluster. The
// first submission has no history, so both modes race and the decision
// maker kills the loser; the second is answered from the recorded history
// and runs the winner alone. It returns both completion times in virtual
// seconds — their difference is the speculative execution overhead the
// paper accepts on first runs.
func SpeculationOverhead(o Options) (firstRun, historyRun float64, err error) {
	o = o.normalized()
	v := VariantDPlus()
	v.UOpts = core.FullUPlus()
	env, err := NewEnv(o.Apply(A3x4()), v)
	if err != nil {
		return 0, 0, err
	}
	defer env.Close()
	inputs, err := workloads.GenerateWordCountInput(env.DFS, env.Cluster, "/in/spec", workloads.WordCountConfig{
		Files: 4, FileBytes: o.bytes(10 * mb), Seed: o.Seed,
	})
	if err != nil {
		return 0, 0, err
	}

	submit := func(name, out string) (*core.SpecResult, error) {
		spec := workloads.WordCountSpec(name, inputs, out, false)
		var res *core.SpecResult
		env.Eng.After(0, func() {
			env.FW.SubmitSpeculative(spec, func(r *core.SpecResult) { res = r })
		})
		env.Eng.RunUntil(env.Eng.Now().Add(1 << 41))
		if res == nil {
			return nil, fmt.Errorf("bench: speculative job %q hung", name)
		}
		if res.Result.Err != nil {
			return nil, res.Result.Err
		}
		return res, nil
	}

	first, err := submit("spec-first", "/out/first")
	if err != nil {
		return 0, 0, err
	}
	if first.FromHistory {
		return 0, 0, fmt.Errorf("bench: first run unexpectedly had history")
	}
	second, err := submit("spec-second", "/out/second")
	if err != nil {
		return 0, 0, err
	}
	if !second.FromHistory {
		return 0, 0, fmt.Errorf("bench: second run ignored history")
	}
	env.RM.Stop()
	return first.Elapsed(), second.Elapsed(), env.CheckResidency()
}
