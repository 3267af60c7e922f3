package query

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"mrapid/internal/core"
	"mrapid/internal/mapreduce"
	"mrapid/internal/sim"
	"mrapid/internal/trace"
)

// maxDAGRecoveries bounds lineage-recovery rounds per query: a cluster
// losing intermediates faster than stages can recompute them fails the
// query instead of looping.
const maxDAGRecoveries = 5

// DAGRunner executes compiled queries as a stage DAG: every stage whose
// dependencies are satisfied is submitted immediately through a
// core.JobServer, so independent branches (a join's two input subtrees,
// stages of different in-flight queries) overlap on the cluster. Each query
// runs under its own logical admission tenant, so one query's burst of
// ready stages cannot starve another's. Intra-query intermediates live in
// the runtime's IntermediateStore (memory within budget, producer-local
// disk beyond) instead of HDFS; stages whose inputs die with a node are
// recomputed from lineage.
type DAGRunner struct {
	FW   *core.Framework
	Srv  *core.JobServer
	Cat  *Catalog
	Mode core.ModeKind // ViaSpeculative, ViaDPlus or ViaUPlus
	Opts CompileOptions

	// Queue is the RM capacity queue stage jobs land in ("" = default). The
	// admission tenant is always the query itself.
	Queue string

	// Sequential keeps at most one stage of each query in flight, in plan
	// order: the stage-chain execution of a Hive/Pig frontend, and the
	// baseline the overlapping schedule is measured against. Everything else
	// — admission, intermediates, lineage recovery — is unchanged.
	Sequential bool

	qseq int
}

// NewDAGRunner builds a DAG runner over a started framework. srv may be nil:
// a private weighted-fair JobServer (default window, no capacity queues) is
// created. Pass a shared server to mix queries with other tenants' jobs
// under one admission window.
func NewDAGRunner(fw *core.Framework, srv *core.JobServer, cat *Catalog) (*DAGRunner, error) {
	if srv == nil {
		var err error
		srv, err = core.NewJobServer(fw, core.JobServerConfig{Policy: core.PolicyWeightedFair})
		if err != nil {
			return nil, err
		}
	}
	return &DAGRunner{FW: fw, Srv: srv, Cat: cat, Mode: ViaSpeculative}, nil
}

// stage lifecycle within one DAG execution.
type stageStatus int

const (
	stagePending stageStatus = iota
	stageRunning
	stageDone
)

// dagRun is the in-flight state of one query's DAG execution.
type dagRun struct {
	r        *DAGRunner
	qid      string
	tenant   string
	compiled *Compiled
	res      *Result
	done     func(*Result, error)
	span     trace.SpanID
	startAt  sim.Time

	status    []stageStatus
	remaining []int // unfinished dependencies per stage
	children  [][]int
	spans     []trace.SpanID
	winners   []core.ModeKind

	running    int
	doneCount  int
	recoveries int
	failed     bool
}

func (d *dagRun) rt() *mapreduce.Runtime { return d.r.FW.RT }

// Run compiles the plan into a stage DAG and executes it, invoking done
// with the result. The caller drives the simulation engine (stages are
// submitted asynchronously on the virtual clock). Rows do not depend on
// Sequential, modulo row order across part files; Elapsed is the query's
// makespan on the virtual clock.
func (r *DAGRunner) Run(p *Plan, done func(*Result, error)) {
	if done == nil {
		panic("query: Run needs a completion callback")
	}
	r.qseq++
	qid := fmt.Sprintf("dq%04d", r.qseq)
	compiled, err := CompileWith(r.Cat, qid, p, r.Opts)
	if err != nil {
		r.FW.RT.Eng.After(0, func() { done(nil, err) })
		return
	}
	rt := r.FW.RT
	rt.EnsureIntermediates()
	n := len(compiled.Stages)
	d := &dagRun{
		r:         r,
		qid:       qid,
		tenant:    "query/" + qid,
		compiled:  compiled,
		res:       &Result{Table: compiled.Out, Stages: n},
		done:      done,
		startAt:   rt.Eng.Now(),
		status:    make([]stageStatus, n),
		remaining: make([]int, n),
		children:  make([][]int, n),
		spans:     make([]trace.SpanID, n),
		winners:   make([]core.ModeKind, n),
	}
	for _, st := range compiled.Stages {
		d.remaining[st.ID] = len(st.Deps)
		for _, dep := range st.Deps {
			d.children[dep] = append(d.children[dep], st.ID)
		}
	}
	d.span = rt.Trace.StartSpan(0, "query", qid+" dag", "",
		trace.A("stages", fmt.Sprint(n)))
	d.submitReady()
}

// submitReady launches every pending stage whose dependencies are done, or
// under Sequential the first of them once nothing else is running.
func (d *dagRun) submitReady() {
	if d.failed {
		return
	}
	for _, st := range d.compiled.Stages {
		if d.r.Sequential && d.running > 0 {
			return
		}
		if d.status[st.ID] == stagePending && d.remaining[st.ID] == 0 {
			d.launch(st)
		}
	}
}

// stampMemo gives a ready stage the digest of its intermediate inputs before
// submission: the recursive lineage digest — every base table's current
// (block, generation) digest folded up through the stage's dependency
// subtree. The memo key is the stage's computation identity, whose
// ClosureSig is the plan signature (query IDs never appear in it, so an
// identical stage of a *different* query maps to the same entry). A base
// file that cannot be digested (e.g. dropped between compile and launch)
// leaves the digest zero: the stage runs normally and is never cached.
func (d *dagRun) stampMemo(st *Stage) {
	if d.r.FW.Memo == nil {
		return
	}
	st.Spec.MemoDigest, _ = d.stageDigest(st, make(map[int]uint64))
}

// stageDigest folds a stage's signature, its dependencies' digests
// (recursively), and the digests of the base-table files it reads directly.
// Intermediate inputs contribute through their producer's digest, not their
// (query-scoped, content-free) file names.
func (d *dagRun) stageDigest(st *Stage, cache map[int]uint64) (uint64, bool) {
	if v, ok := cache[st.ID]; ok {
		return v, true
	}
	h := fnv.New64a()
	h.Write([]byte(st.Sig))
	produced := map[string]bool{}
	for _, dep := range st.Deps {
		dd, ok := d.stageDigest(d.compiled.Stages[dep], cache)
		if !ok {
			return 0, false
		}
		h.Write(binary.LittleEndian.AppendUint64(nil, dd))
		for _, f := range d.compiled.Stages[dep].Out.Files {
			produced[f] = true
		}
	}
	for _, f := range st.Spec.InputFiles {
		if produced[f] {
			continue
		}
		fd, err := d.rt().DFS.FileDigest(f)
		if err != nil {
			return 0, false
		}
		h.Write([]byte(f))
		h.Write(binary.LittleEndian.AppendUint64(nil, fd))
	}
	v := h.Sum64()
	cache[st.ID] = v
	return v, true
}

// launch submits one ready stage. Empty-input stages short-circuit: their
// output files materialize empty without running a job.
func (d *dagRun) launch(st *Stage) {
	rt := d.rt()
	d.status[st.ID] = stageRunning
	d.running++
	if d.running > d.res.MaxConcurrent {
		d.res.MaxConcurrent = d.running
	}
	d.spans[st.ID] = rt.Trace.StartSpan(d.span, "query", st.Spec.Name, "stage",
		trace.A("kind", st.Kind), trace.A("reduces", fmt.Sprint(st.Spec.NumReduces)))
	if stageInputBytes(rt, st.Spec.InputFiles) == 0 {
		rt.Eng.After(0, func() {
			if err := emitEmptyOutputs(rt, st); err != nil {
				d.complete(st, StageSkipped, err)
				return
			}
			d.complete(st, StageSkipped, nil)
		})
		return
	}
	d.stampMemo(st)
	err := d.r.Srv.SubmitAs(d.tenant, d.r.Queue, d.r.Mode, st.Spec, func(jr *mapreduce.Result) {
		winner := core.ModeKind(jr.Mode)
		d.complete(st, winner, jr.Err)
	})
	if err != nil {
		d.complete(st, "", err)
	}
}

// complete settles one stage's outcome: successes unlock children, lost
// intermediates trigger lineage recovery, anything else fails the query.
func (d *dagRun) complete(st *Stage, winner core.ModeKind, err error) {
	if d.failed {
		return
	}
	rt := d.rt()
	d.running--
	if err != nil {
		rt.Trace.EndSpan(d.spans[st.ID], trace.A("error", err.Error()))
		if errors.Is(err, mapreduce.ErrIntermediateLost) && d.recoveries < maxDAGRecoveries {
			d.recover(st)
			return
		}
		d.fail(fmt.Errorf("query: stage %d (%s): %w", st.ID, st.Kind, err))
		return
	}
	rt.Trace.EndSpan(d.spans[st.ID], trace.A("winner", string(winner)))
	d.status[st.ID] = stageDone
	d.doneCount++
	d.winners[st.ID] = winner
	for _, c := range d.children[st.ID] {
		d.remaining[c]--
	}
	d.submitReady()
	d.maybeFinish()
}

// outputsAvailable reports whether a stage's committed intermediates are
// still readable (a node death takes its unreplicated share down with it).
// Final-stage outputs live in HDFS and are always considered available.
func (d *dagRun) outputsAvailable(st *Stage) bool {
	if !st.Spec.IntermediateOutput {
		return true
	}
	store := d.rt().Intermediates
	for _, f := range st.Out.Files {
		if _, ok := store.Contents(f); !ok {
			return false
		}
	}
	return true
}

// recover handles a stage that failed reading a lost intermediate: the
// stage reverts to pending, every done producer whose outputs are no longer
// available reverts too (its output is recomputed from lineage — the paper's
// short-job setting makes recompute cheaper than replicating intermediates),
// dependency counts are rebuilt, and the ready frontier resubmits.
func (d *dagRun) recover(failed *Stage) {
	rt := d.rt()
	d.recoveries++
	if rt.Trace != nil {
		rt.Trace.Mark(d.span, "query", "lost an intermediate input",
			trace.A("stage", fmt.Sprint(failed.ID)), trace.A("recovery_round", fmt.Sprint(d.recoveries)))
	}
	d.status[failed.ID] = stagePending
	rt.DeleteOutputPrefix(failed.Spec.OutputFile)
	for _, st := range d.compiled.Stages {
		if d.status[st.ID] == stageDone && !d.outputsAvailable(st) {
			d.status[st.ID] = stagePending
			d.doneCount--
			rt.DeleteOutputPrefix(st.Spec.OutputFile)
		}
	}
	for _, st := range d.compiled.Stages {
		if d.status[st.ID] != stagePending {
			continue
		}
		n := 0
		for _, dep := range st.Deps {
			if d.status[dep] != stageDone {
				n++
			}
		}
		d.remaining[st.ID] = n
	}
	d.submitReady()
}

// maybeFinish completes the query once every stage is done: intermediates
// are released, the per-query admission tenant retires, and the result
// table is read back from HDFS.
func (d *dagRun) maybeFinish() {
	if d.failed || d.doneCount < len(d.compiled.Stages) || d.running > 0 {
		return
	}
	rt := d.rt()
	d.res.Elapsed = rt.Eng.Now().Sub(d.startAt).Seconds()
	d.res.Recoveries = d.recoveries
	d.res.Winners = append(d.res.Winners, d.winners...)
	for _, st := range d.compiled.Stages {
		if st.Spec.IntermediateOutput {
			rt.Intermediates.DeletePrefix(st.Spec.OutputFile)
		}
	}
	d.r.Srv.ReleaseTenant(d.tenant)
	rt.Trace.EndSpan(d.span, trace.A("max_concurrent", fmt.Sprint(d.res.MaxConcurrent)))
	finishQuery(d.r.FW, d.r.Cat, d.compiled, d.res, d.done)
}

// fail reports a terminal error. Stages still in flight keep running to
// completion on the cluster but their outcomes are ignored.
func (d *dagRun) fail(err error) {
	if d.failed {
		return
	}
	d.failed = true
	rt := d.rt()
	rt.Trace.EndSpan(d.span, trace.A("error", err.Error()))
	d.r.Srv.ReleaseTenant(d.tenant)
	d.done(nil, err)
}
