package bench

import (
	"fmt"

	"mrapid/internal/profiler"
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
	v := VariantSpeculative()
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
	first, err := env.Run(v, workloads.WordCountSpec("spec-first", inputs, "/out/first", false))
	if err != nil {
		return 0, 0, err
	}
	if src := first.Profile.Decision.Source; src != profiler.ByRace {
		return 0, 0, fmt.Errorf("bench: first run did not race (decided by %q)", src)
	}
	second, err := env.Run(v, workloads.WordCountSpec("spec-second", inputs, "/out/second", false))
	if err != nil {
		return 0, 0, err
	}
	if src := second.Profile.Decision.Source; src != profiler.ByHistory {
		return 0, 0, fmt.Errorf("bench: second run ignored history (decided by %q)", src)
	}
	return first.Elapsed(), second.Elapsed(), nil
}
