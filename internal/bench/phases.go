package bench

import (
	"fmt"

	"mrapid/internal/mapreduce"
	"mrapid/internal/report"
	"mrapid/internal/trace"
	"mrapid/internal/workloads"
)

// phaseColumns are the breakdown columns of the phases experiment, in
// pipeline order, plus the job total.
var phaseColumns = []string{
	"submit", "am", "schedule", "launch", "map", "shuffle", "commit",
	"reduce", "notify", "other", "total",
}

// runPhases runs one traced WordCount (4×10 MB, A3×4) under a variant and
// returns the critical-path analyzer's phase attribution.
func runPhases(v Variant, o Options) (*report.Report, error) {
	var tr *trace.Log
	res, _, err := runJob(A3x4(), v, o, func(env *Env) (*mapreduce.JobSpec, error) {
		tr, _ = env.EnableObservability(1 << 16)
		names, err := workloads.GenerateWordCountInput(env.DFS, env.Cluster, "/in/ph", workloads.WordCountConfig{
			Files: 4, FileBytes: o.bytes(10 * mb), Seed: o.Seed,
		})
		return workloads.WordCountSpec("wordcount-phases", names, "/out/ph", false), err
	})
	if err != nil {
		return nil, err
	}
	return report.Analyze(tr, res.Profile.Root())
}

// PhaseBreakdown reproduces the paper's motivating observation — where a
// short job's time actually goes — as one analyzer report per execution
// mode. Each row is a mode, each column a phase's seconds; rows sum (with
// "other") to the job total, so the table shows exactly which phases each
// MRapid optimization removes.
func PhaseBreakdown(o Options) (*Figure, error) {
	o = o.normalized()
	stock := VariantHadoop()
	stock.Name = "stock"
	rows := []Variant{stock, VariantUber(), VariantDPlus(), VariantUPlus(), VariantSpeculative()}
	fig := &Figure{
		ID: "phases", Title: "Phase attribution per mode (WordCount, 4×10 MB, A3×4)",
		XLabel: "mode", Columns: phaseColumns,
	}
	for i, v := range rows {
		rep, err := runPhases(v, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.Name, err)
		}
		secs := make(map[string]float64, len(phaseColumns))
		for _, c := range phaseColumns {
			secs[c] = 0
		}
		for _, p := range rep.Phases {
			secs[p.Phase] = p.Seconds
		}
		secs["total"] = rep.Total
		fig.Points = append(fig.Points, Point{X: float64(i), Label: v.Name, Seconds: secs})
		fig.Notes = append(fig.Notes, rep.Headline())
	}
	return fig, nil
}
