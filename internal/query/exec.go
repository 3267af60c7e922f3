package query

import (
	"mrapid/internal/core"
	"mrapid/internal/mapreduce"
)

// The modes a DAG runner submits its compiled stages in. ViaSpeculative races
// D+ and U+ per stage kind; after the first query the history pre-decides each
// stage kind instantly — the paper's intended deployment for Hive/Pig-style
// bursts.
const (
	ViaSpeculative = core.ModeSpeculative
	ViaDPlus       = core.ModeDPlus
	ViaUPlus       = core.ModeUPlus
)

// StageSkipped marks a stage whose input was empty: no job ran, the stage's
// output files were materialized empty.
const StageSkipped = core.ModeKind("skipped")

// Result is a finished query: its rows, output table, and execution
// statistics.
type Result struct {
	Table *Table
	// Rows is the result table as ReadTable returns it: the rows of one
	// part file share one string, so keeping any row keeps that file's
	// bytes alive.
	Rows    []Row
	Stages  int
	Elapsed float64 // virtual seconds, the query's makespan
	Winners []core.ModeKind

	// MaxConcurrent is the peak number of this query's stages in flight at
	// once: 1 under DAGRunner.Sequential, ≥2 when independent branches
	// overlapped.
	MaxConcurrent int

	// AggParseErrors counts non-numeric values the query's aggregates
	// skipped (also fed to the query_agg_parse_errors metric).
	AggParseErrors int64

	// Recoveries counts lineage-recovery rounds the runner ran after losing
	// unreplicated intermediates with a dead node.
	Recoveries int
}

// stageInputBytes totals a stage's input size across the intermediate store
// and HDFS. Missing files contribute nothing.
func stageInputBytes(rt *mapreduce.Runtime, files []string) int64 {
	var total int64
	for _, f := range files {
		if rt.Intermediates != nil {
			if n, ok := rt.Intermediates.Size(f); ok {
				total += n
				continue
			}
		}
		if df, err := rt.DFS.Lookup(f); err == nil {
			total += df.Size()
		}
	}
	return total
}

// emitEmptyOutputs materializes a skipped stage's output files as empty, so
// consumers still find them: store entries for intra-query stages, zero-byte
// HDFS files for the result stage (zero-size blocks yield no input splits,
// so downstream jobs and ReadTable both see an empty table).
func emitEmptyOutputs(rt *mapreduce.Runtime, st *Stage) error {
	node := rt.Cluster.Workers()[0]
	for _, f := range st.Out.Files {
		if st.Spec.IntermediateOutput && rt.Intermediates != nil {
			rt.Intermediates.Put(f, nil, node)
			continue
		}
		if _, err := rt.DFS.PutInstant(f, nil, node); err != nil {
			return err
		}
	}
	return nil
}

// finishQuery loads the result table and settles the aggregate-skip
// accounting.
func finishQuery(fw *core.Framework, cat *Catalog, compiled *Compiled, res *Result, done func(*Result, error)) {
	rows, err := cat.ReadTable(compiled.Out)
	if err != nil {
		done(nil, err)
		return
	}
	res.Rows = rows
	res.AggParseErrors = compiled.AggParseErrors.Load()
	if res.AggParseErrors > 0 {
		fw.RT.Reg.CounterHandle("query_agg_parse_errors").Add(res.AggParseErrors)
	}
	done(res, nil)
}
