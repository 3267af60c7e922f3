package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"mrapid/internal/bench"
	"mrapid/internal/core"
	"mrapid/internal/mapreduce"
	"mrapid/internal/metrics"
	"mrapid/internal/profiler"
	"mrapid/internal/query"
	"mrapid/internal/report"
)

// jobRun is one finished job handed to the ledger.
type jobRun struct {
	spec *mapreduce.JobSpec
	res  *mapreduce.Result
	// point names the bytes the job read. Jobs of one point ran in separate
	// simulations over identical input, so bench's process-wide MapCache
	// mapped each split once for all of them, and so does the replay.
	point string
}

// ledger is the per-layer account of one traced pass. Every layer is
// measured from outside: counts are read through exported accessors and the
// metrics registry when a simulation ends, and the host seconds of the pure
// data path are obtained by replaying it on the workload's own bytes after
// the run.
type ledger struct {
	vals map[string]float64

	// Replay state.
	mapExec, reduceExec, consolidate time.Duration
	point                            string
	mapOuts                          map[string]*mapreduce.MapOutput // replayed outputs of the current point
	stageOuts                        map[string][][]byte             // replayed query stage outputs by signature

	allocWaitSum float64
	allocWaitN   int64
}

func newLedger() *ledger {
	return &ledger{vals: map[string]float64{}, mapOuts: map[string]*mapreduce.MapOutput{}, stageOuts: map[string][][]byte{}}
}

func (l *ledger) set(name string, v float64) { l.vals[name] = v }
func (l *ledger) add(name string, v float64) { l.vals[name] += v }
func (l *ledger) max(name string, v float64) { l.vals[name] = max(l.vals[name], v) }

// sumSeries adds up every series of a labelled counter or gauge.
func sumSeries(counters map[string]int64, name string) float64 {
	var s int64
	for k, v := range counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return float64(s)
}

// counts reads one finished simulation's deterministic counters.
func (l *ledger) counts(env *bench.Env) {
	l.add("sim.events", float64(env.Eng.Fired()))
	l.max("sim.max_pending", float64(env.Eng.MaxPending()))
	l.add("yarn.allocations", float64(env.RM.Metrics.Allocations))

	counters := env.Reg.Counters()
	hists := env.Reg.Histograms()
	l.add("yarn.containers", sumSeries(counters, "yarn_containers_launched_total"))
	if h := hists["yarn_alloc_latency_seconds"]; h != nil {
		l.allocWaitSum += h.Sum
		l.allocWaitN += h.Count
	}
	l.add("mapreduce.task_attempts", sumSeries(counters, "mapreduce_task_attempts_total"))
	for _, transport := range []string{"memory", "disk", "network"} {
		if h := hists[metrics.With("mapreduce_shuffle_bytes", "transport", transport)]; h != nil {
			l.add("mapreduce.shuffle_mb_"+transport, h.Sum/mib)
		}
	}
	l.add("shuffle.fetches", sumSeries(counters, "mapreduce_shuffle_fetch_total"))
	l.add("shuffle.combine_saved_mb", sumSeries(counters, "shuffle_combine_saved_bytes")/mib)
	l.add("shuffle.compress_saved_mb", sumSeries(counters, "shuffle_compress_saved_bytes")/mib)

	// The map cache is one per process, so its counters are already totals.
	if c := env.RT.MapCache; c != nil {
		l.set("mapreduce.mapcache_hit_ratio", ratio(c.Hits(), c.Hits()+c.Misses()))
	}
	if st := env.RT.Intermediates; st != nil {
		l.add("query.hdfs_avoided_mb", float64(st.HDFSBytesAvoided)/mib)
	}
	if env.FW != nil && env.FW.Memo != nil {
		s := env.FW.Memo.Snapshot()
		l.add("memo.hits", float64(s.Hits))
		l.add("memo.misses", float64(s.Misses))
		l.set("memo.hit_ratio", ratio(s.Hits, s.Hits+s.Misses))
		l.max("memo.mem_mb", float64(s.MemBytes)/mib)
	}

	// Critical-path partition: every job's root span, analyzed and summed.
	// The phases of one job sum to its elapsed time, so every virtual
	// second has one owner.
	for _, s := range env.Trace.Spans() {
		if s.Component != "job" {
			continue
		}
		rep, err := report.Analyze(env.Trace, s.ID)
		if err != nil {
			continue
		}
		for _, ph := range rep.Phases {
			l.add("report."+ph.Phase+"_vs", ph.Seconds)
		}
	}
}

// account books one finished simulation: its counters and the replay of
// its jobs' data path.
func (l *ledger) account(p *pass, env *bench.Env, jobs []jobRun) {
	p.span("bench.ledger", func() {
		l.counts(env)
		// Replay from a collected heap: the garbage of the run and of its
		// verification is not the replay's to pay for.
		runtime.GC()
		for _, j := range jobs {
			if err := l.replayJob(env, j); err != nil {
				p.failed++
				p.failures = append(p.failures, fmt.Sprintf("replay of %s: %v", j.spec.Name, err))
			}
		}
	})
}

// timed adds fn's host time to *d.
func timed(d *time.Duration, fn func()) {
	start := time.Now()
	fn()
	*d += time.Since(start)
}

// ratio is part/whole, 0 for an empty whole.
func ratio(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// execMap runs the map side of spec over one split's bytes and books it.
// fromDFS says the bytes are an HDFS block rather than a query intermediate.
func (l *ledger) execMap(spec *mapreduce.JobSpec, file string, data []byte, fromDFS bool) *mapreduce.MapOutput {
	var mo *mapreduce.MapOutput
	timed(&l.mapExec, func() { mo = mapreduce.ExecMapFile(spec, file, data) })
	l.add("mapreduce.map_records", float64(mo.Records))
	for _, part := range mo.Partitions {
		l.add("mapreduce.map_pairs", float64(len(part)))
	}
	l.add("mapreduce.map_out_mb", float64(mo.TotalBytes)/mib)
	if fromDFS {
		l.add("hdfs.input_mb", float64(len(data))/mib)
	}
	return mo
}

// replayReduce merges, reduces and encodes every partition, returning the
// bytes the job committed.
func (l *ledger) replayReduce(spec *mapreduce.JobSpec, outs []*mapreduce.MapOutput) [][]byte {
	parts := make([][]byte, spec.NumReduces)
	timed(&l.reduceExec, func() {
		for part := range parts {
			parts[part] = mapreduce.EncodePairs(mapreduce.ExecReduce(spec, part, outs))
		}
	})
	return parts
}

// replayJob re-executes a job's pure data path on the bytes it read: the
// map side once per distinct split, the shuffle service's per-node
// consolidation when the job ran with it, and the reduce side per
// partition. The replayed output must be the output the job committed.
func (l *ledger) replayJob(env *bench.Env, j jobRun) error {
	if j.res.Mode == string(core.ModeMemo) {
		return nil // served from the cache: nothing executed
	}
	if j.point != l.point {
		l.point = j.point
		clear(l.mapOuts)
	}
	spec := j.spec
	splits, err := env.RT.Splits(spec.InputFiles)
	if err != nil {
		return err
	}
	outs := make([]*mapreduce.MapOutput, len(splits))
	for i, s := range splits {
		f, err := env.DFS.Lookup(s.File)
		if err != nil {
			return err
		}
		var data []byte
		for _, b := range f.Blocks {
			if b.Offset == s.Offset {
				data = b.Data
			}
		}
		// Once per distinct split of the point: what the simulations computed
		// on a MapCache miss.
		key := fmt.Sprintf("%s|%d|%d|%t", s.File, s.Offset, spec.NumReduces, spec.Combine != nil)
		mo, done := l.mapOuts[key]
		if !done {
			mo = l.execMap(spec, s.File, data, true)
			l.mapOuts[key] = mo
		}
		outs[i] = mo
	}

	if env.RT.Shuffle != nil {
		// One consolidated output per node that ran maps, in the order the
		// nodes first finished one.
		var order []string
		groups := map[string][]*mapreduce.MapOutput{}
		for _, t := range j.res.Profile.Tasks {
			if t.Kind != profiler.MapTask || t.Failed {
				continue
			}
			if _, seen := groups[t.Node]; !seen {
				order = append(order, t.Node)
			}
			groups[t.Node] = append(groups[t.Node], outs[t.Index])
		}
		outs = make([]*mapreduce.MapOutput, len(order))
		timed(&l.consolidate, func() {
			for i, node := range order {
				outs[i] = mapreduce.ConsolidateGroup(spec, groups[node]).Out
			}
		})
	}

	for part, data := range l.replayReduce(spec, outs) {
		want, err := env.DFS.Contents(mapreduce.PartFileName(spec.OutputFile, part))
		if err != nil {
			return err
		}
		if !bytes.Equal(data, want) {
			return fmt.Errorf("partition %d: replayed output differs from the committed one", part)
		}
	}
	return nil
}

// accountQueries books the query workload's simulation. Stage jobs cannot
// be replayed one by one afterwards (the DAG runner deletes a query's
// intermediates when it finishes), so each query is compiled again and its
// stage DAG re-executed functionally: a stage's replayed output feeds its
// consumers. Stages the memo cache served executed nothing and are skipped;
// their outputs are reused from the earlier replay of the same signature.
func (l *ledger) accountQueries(p *pass, env *bench.Env, cat *query.Catalog, opts query.CompileOptions, stream []qrPlan, results []*query.Result) {
	p.span("bench.ledger", func() {
		l.counts(env)
		runtime.GC()
		for i, q := range stream {
			res := results[i]
			if res == nil {
				continue
			}
			l.add("query.stages", float64(res.Stages))
			l.max("query.max_concurrent", float64(res.MaxConcurrent))
			var compiled *query.Compiled
			var err error
			// The runner numbered its queries dq0001, dq0002, …
			p.span("query.compile", func() {
				compiled, err = query.CompileWith(cat, fmt.Sprintf("dq%04d", i+1), q.plan(), opts)
			})
			if err == nil {
				err = l.replayQuery(env, compiled, res)
			}
			if err != nil {
				p.failed++
				p.failures = append(p.failures, fmt.Sprintf("replay of query-%d: %v", i, err))
			}
		}
	})
}

func (l *ledger) replayQuery(env *bench.Env, compiled *query.Compiled, res *query.Result) error {
	block := env.Params.HDFSBlockBytes
	produced := map[string][]byte{} // this query's intermediate files
	var final [][]byte
	for _, st := range compiled.Stages {
		fromMemo := res.Winners[st.ID] == core.ModeMemo
		if fromMemo {
			l.add("query.stages_from_memo", 1)
		}
		parts, done := l.stageOuts[st.Sig]
		if !done {
			if fromMemo {
				return fmt.Errorf("stage %d was served from the cache but never replayed", st.ID)
			}
			var outs []*mapreduce.MapOutput
			for _, file := range st.Spec.InputFiles {
				data, intermediate := produced[file]
				if !intermediate {
					var err error
					if data, err = env.DFS.Contents(file); err != nil {
						return err
					}
				}
				for off := int64(0); off < int64(len(data)); off += block {
					chunk := data[off:min(off+block, int64(len(data)))]
					outs = append(outs, l.execMap(st.Spec, file, chunk, !intermediate))
				}
			}
			parts = l.replayReduce(st.Spec, outs)
			l.stageOuts[st.Sig] = parts
		}
		for part, data := range parts {
			produced[st.Out.Files[part]] = data
		}
		final = parts
	}

	// The last stage's replayed bytes must be the result the query committed.
	for part, data := range final {
		got, err := env.DFS.Contents(compiled.Out.Files[part])
		if err != nil {
			return err
		}
		if !bytes.Equal(data, got) {
			return fmt.Errorf("result partition %d: replayed output differs from the committed one", part)
		}
	}
	return nil
}

// metrics closes the account: derived values and the span sums.
func (l *ledger) metrics(p *pass) map[string]float64 {
	run := p.host.Seconds()
	l.set("sim.run_s", run)
	l.set("bench.newenv_s", p.spanSeconds("bench.newenv"))
	l.set("workloads.generate_s", p.spanSeconds("workloads.generate"))
	l.set("workloads.terasample_s", p.spanSeconds("workloads.terasample"))
	l.set("query.compile_s", p.spanSeconds("query.compile"))
	l.set("bench.verify_s", p.spanSeconds("bench.verify"))
	l.set("mapreduce.map_exec_s", l.mapExec.Seconds())
	l.set("mapreduce.reduce_exec_s", l.reduceExec.Seconds())
	l.set("shuffle.consolidate_s", l.consolidate.Seconds())
	l.set("sim.residual_s", run-l.mapExec.Seconds()-l.reduceExec.Seconds()-l.consolidate.Seconds())
	if run > 0 {
		l.set("sim.events_per_host_s", l.vals["sim.events"]/run)
	}
	if l.allocWaitN > 0 {
		l.set("yarn.alloc_wait_mean_vs", l.allocWaitSum/float64(l.allocWaitN))
	}
	for mode, seconds := range p.modes {
		l.set("bench.virt_"+mode+"_s", seconds)
	}
	return l.vals
}
