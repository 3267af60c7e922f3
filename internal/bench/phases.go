package bench

import (
	"fmt"

	"mrapid/internal/core"
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
func runPhases(v Variant, speculative bool, o Options) (*report.Report, error) {
	env, err := NewEnv(o.Apply(A3x4()), v)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	tr, _ := env.EnableObservability(1 << 16)
	names, err := workloads.GenerateWordCountInput(env.DFS, env.Cluster, "/in/ph", workloads.WordCountConfig{
		Files: 4, FileBytes: o.bytes(10 * mb), Seed: o.Seed,
	})
	if err != nil {
		return nil, err
	}
	spec := workloads.WordCountSpec("wordcount-phases", names, "/out/ph", false)

	var root trace.SpanID
	if speculative {
		var res *core.SpecResult
		env.Eng.After(0, func() {
			env.FW.SubmitSpeculative(spec, func(r *core.SpecResult) { res = r })
		})
		env.Eng.RunUntil(horizon)
		if res == nil {
			return nil, fmt.Errorf("bench: speculative phases job hung")
		}
		if res.Result.Err != nil {
			return nil, res.Result.Err
		}
		env.RM.Stop()
		if err := env.CheckResidency(); err != nil {
			return nil, err
		}
		root = res.Span
	} else {
		res, err := env.Run(v, spec)
		if err != nil {
			return nil, err
		}
		root = res.Profile.Span
	}
	return report.Analyze(tr, root)
}

// PhaseBreakdown reproduces the paper's motivating observation — where a
// short job's time actually goes — as one analyzer report per execution
// mode. Each row is a mode, each column a phase's seconds; rows sum (with
// "other") to the job total, so the table shows exactly which phases each
// MRapid optimization removes.
func PhaseBreakdown(o Options) (*Figure, error) {
	o = o.normalized()
	type row struct {
		name        string
		v           Variant
		speculative bool
	}
	stock := VariantHadoop()
	stock.Name = "stock"
	rows := []row{
		{"stock", stock, false},
		{"uber", VariantUber(), false},
		{"dplus", VariantDPlus(), false},
		{"uplus", VariantUPlus(), false},
		{"speculative", VariantDPlus(), true},
	}
	fig := &Figure{
		ID: "phases", Title: "Phase attribution per mode (WordCount, 4×10 MB, A3×4)",
		XLabel: "mode", Columns: phaseColumns,
	}
	for i, r := range rows {
		rep, err := runPhases(r.v, r.speculative, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		secs := make(map[string]float64, len(phaseColumns))
		for _, c := range phaseColumns {
			secs[c] = 0
		}
		for _, p := range rep.Phases {
			secs[p.Phase] = p.Seconds
		}
		secs["total"] = rep.Total
		fig.Points = append(fig.Points, Point{X: float64(i), Label: r.name, Seconds: secs})
		fig.Notes = append(fig.Notes, rep.Headline())
	}
	return fig, nil
}
