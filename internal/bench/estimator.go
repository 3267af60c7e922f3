package bench

import (
	"fmt"

	"mrapid/internal/core"
	"mrapid/internal/mapreduce"
	"mrapid/internal/profiler"
	"mrapid/internal/workloads"
)

// EstimatorAccuracy is a supplementary experiment (not a paper figure, but
// the mechanism §III-C rests on): across the Figure 7 sweep, audit the
// decision maker's own verdicts. Each cell runs D+ and U+ alone for the
// measured times, then races them as one speculative job on a fresh
// simulation; that job's Profile.Decision supplies the Equation 2/3
// estimates the race computed from its first profiled map, and the mode
// that won the race is the verdict. Regret is the measured time of the
// verdict's mode minus the faster mode's. The estimates deliberately omit
// the terms shared by both modes (AM setup, the reduce phase), so their
// absolute values sit below the measured times; only their ordering is
// load-bearing.
func EstimatorAccuracy(o Options) (*Figure, error) {
	o = o.normalized()
	fig := &Figure{
		ID:     "estimator",
		Title:  "Decision-maker estimates vs measured mode times (WordCount, A3×4)",
		XLabel: "files",
		Columns: []string{
			"dplus-measured", "uplus-measured", "speculative", "dplus-estimate", "uplus-estimate", "regret",
		},
	}
	correct, total := 0, 0
	for _, files := range []int{1, 2, 4, 8, 16} {
		results := map[core.ModeKind]*mapreduce.Result{}
		for _, v := range []Variant{VariantDPlus(), VariantUPlus(), VariantSpeculative()} {
			res, _, err := runJob(A3x4(), v, o, func(env *Env) (*mapreduce.JobSpec, error) {
				names, err := workloads.GenerateWordCountInput(env.DFS, env.Cluster, "/in/wc", workloads.WordCountConfig{
					Files: files, FileBytes: o.bytes(10 * mb), Seed: o.Seed,
				})
				return workloads.WordCountSpec(fmt.Sprintf("est-%d", files), names, "/out", false), err
			})
			if err != nil {
				return nil, err
			}
			results[v.Mode] = res
		}
		measured := map[core.ModeKind]float64{
			core.ModeDPlus: results[core.ModeDPlus].Elapsed(),
			core.ModeUPlus: results[core.ModeUPlus].Elapsed(),
		}
		raced := results[core.ModeSpeculative]
		d := raced.Profile.Decision
		if d.Source != profiler.ByRace || d.EstimateD <= 0 || d.EstimateU <= 0 {
			return nil, fmt.Errorf("bench: estimator at %d files: decision %q with estimates D+=%s U+=%s, want a race's",
				files, d.Source, d.EstimateD, d.EstimateU)
		}
		verdict := core.ModeKind(raced.Mode)
		actual := core.ModeUPlus
		if measured[core.ModeDPlus] < measured[core.ModeUPlus] {
			actual = core.ModeDPlus
		}
		regret := measured[verdict] - measured[actual]

		fig.Points = append(fig.Points, Point{X: float64(files), Label: fmt.Sprintf("%d", files), Seconds: map[string]float64{
			"dplus-measured": measured[core.ModeDPlus],
			"uplus-measured": measured[core.ModeUPlus],
			"speculative":    raced.Elapsed(),
			"dplus-estimate": d.EstimateD.Seconds(),
			"uplus-estimate": d.EstimateU.Seconds(),
			"regret":         regret,
		}})

		total++
		if verdict == actual {
			correct++
		} else {
			fig.Notes = append(fig.Notes, fmt.Sprintf(
				"%d files: the race picked %s, %s was faster (measured %.2fs vs %.2fs, regret %.2fs)",
				files, verdict, actual, measured[core.ModeDPlus], measured[core.ModeUPlus], regret))
		}
	}
	fig.Notes = append(fig.Notes, fmt.Sprintf("decision matched the measured winner at %d/%d sweep points", correct, total))
	fig.Notes = append(fig.Notes,
		"Equation 2 omits U+ cache-overflow spills (the paper's model has the same blind spot), so mispredictions cluster at the largest inputs",
		"speculative is timed from the pooled SubmittedAt, after the race's artifact upload; the phases table times the same race from its root span, "+
			"upload included (DESIGN.md §7, \"Where a job's clock starts\")")
	return fig, nil
}
