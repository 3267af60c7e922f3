package bench

import (
	"fmt"

	"mrapid/internal/core"
	"mrapid/internal/mapreduce"
	"mrapid/internal/profiler"
	"mrapid/internal/workloads"
)

// EstimatorAccuracy is a supplementary experiment (not a paper figure, but
// the mechanism §III-C rests on): across the Figure 7 sweep, compare the
// decision maker's Equation 2/3 estimates with the measured D+ and U+
// completion times and check that the *decision* — which mode to kill —
// matches the mode that actually wins. The estimates deliberately omit the
// terms shared by both modes (AM setup, the reduce phase), so their
// absolute values sit below the measured times; only their ordering is
// load-bearing.
func EstimatorAccuracy(o Options) (*Figure, error) {
	o = o.normalized()
	fig := &Figure{
		ID:     "estimator",
		Title:  "Decision-maker estimates vs measured mode times (WordCount, A3×4)",
		XLabel: "files",
		Columns: []string{
			"dplus-measured", "uplus-measured", "dplus-estimate", "uplus-estimate",
		},
	}
	correct, total := 0, 0
	for _, files := range []int{1, 2, 4, 8, 16} {
		var measured = map[core.ModeKind]float64{}
		var sample *profiler.Summary
		for _, v := range []Variant{VariantDPlus(), VariantUPlus()} {
			res, _, err := runJob(A3x4(), v, o, func(env *Env) (*mapreduce.JobSpec, error) {
				names, err := workloads.GenerateWordCountInput(env.DFS, env.Cluster, "/in/wc", workloads.WordCountConfig{
					Files: files, FileBytes: o.bytes(10 * mb), Seed: o.Seed,
				})
				return workloads.WordCountSpec(fmt.Sprintf("est-%d", files), names, "/out", false), err
			})
			if err != nil {
				return nil, err
			}
			measured[v.Mode] = res.Elapsed()
			if v.Mode == core.ModeDPlus {
				s := res.Profile.Summarize()
				sample = &s
			}
		}

		// Build the estimator inputs the way the decision maker does, from
		// the profiled summary plus the cluster structure.
		setup := A3x4()
		in := core.InputsFromProfile(*sample, files*1, /* one split per file */
			setup.Workers*setup.Instance.MaxContainers(),
			setup.Instance.Cores, setup.Instance, setup.Params)
		estD := core.EstimateDPlus(in).Seconds()
		estU := core.EstimateUPlus(in).Seconds()

		p := Point{X: float64(files), Label: fmt.Sprintf("%d", files), Seconds: map[string]float64{
			"dplus-measured": measured[core.ModeDPlus],
			"uplus-measured": measured[core.ModeUPlus],
			"dplus-estimate": estD,
			"uplus-estimate": estU,
		}}
		fig.Points = append(fig.Points, p)

		total++
		predicted := core.Decide(in)
		actual := core.ModeUPlus
		if measured[core.ModeDPlus] < measured[core.ModeUPlus] {
			actual = core.ModeDPlus
		}
		if predicted == actual {
			correct++
		} else {
			fig.Notes = append(fig.Notes, fmt.Sprintf(
				"%d files: estimator picked %s, %s was faster (measured %.2fs vs %.2fs)",
				files, predicted, actual, measured[core.ModeDPlus], measured[core.ModeUPlus]))
		}
	}
	fig.Notes = append(fig.Notes, fmt.Sprintf("decision matched the measured winner at %d/%d sweep points", correct, total))
	fig.Notes = append(fig.Notes,
		"Equation 2 omits U+ cache-overflow spills (the paper's model has the same blind spot), so mispredictions cluster at the largest inputs")
	return fig, nil
}
