package bench

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"mrapid/internal/core"
	"mrapid/internal/flight"
	"mrapid/internal/mapreduce"
	"mrapid/internal/metrics"
	"mrapid/internal/sim"
	"mrapid/internal/workloads"
	"mrapid/internal/yarn"
)

// WorkloadConfig describes a multi-tenant job stream for the throughput
// experiment and the mrapid CLI's multi-job mode.
type WorkloadConfig struct {
	// Jobs is the total number of submissions across all tenants.
	Jobs int
	// Tenants is the number of capacity queues the jobs are spread over
	// (round-robin). Each tenant gets an equal share of 70% of the cluster;
	// the remaining 30% is the default queue the AM pool runs in.
	Tenants int
	// Arrival picks the inter-arrival process: "burst" (everything at t=0),
	// "uniform:<gap>" (fixed spacing), or "poisson:<mean>" (exponential
	// inter-arrival times, seeded deterministically).
	Arrival string
	// Policy orders admission; empty means FIFO.
	Policy core.AdmissionPolicy
	// Blocked assigns jobs to tenants in contiguous blocks (tenant-0's whole
	// batch arrives first) instead of round-robin. Block arrival is where
	// admission policies diverge: FIFO drains the first tenant's backlog
	// before later tenants run, weighted-fair interleaves them.
	Blocked bool

	// Speculative routes every job through the full speculative workflow
	// (D+/U+ race + decision maker) instead of alternating fixed modes, each
	// under its own JobKey, so the history never pre-decides a later job:
	// every job the memo cache misses races.
	Speculative bool

	// Mix spreads the stream over this many distinct input sets (job i reads
	// set i%Mix), each generated from its own seed. 0 or 1 keeps the classic
	// single shared input. With the memo cache on, Mix controls the repeat
	// structure: every set's first job misses, every revisit hits.
	Mix int
}

// TenantStats aggregates one tenant's view of a workload run.
type TenantStats struct {
	Jobs        int
	MeanLatency float64 // seconds, submission → client-observed completion
	MeanWait    float64 // seconds spent queued in the JobServer
}

// ThroughputResult is one workload run's summary.
type ThroughputResult struct {
	Policy      core.AdmissionPolicy
	Jobs        int
	Makespan    float64 // seconds, first arrival → last completion
	P50         float64 // seconds, median job latency
	P99         float64 // seconds, 99th-percentile job latency
	MeanWait    float64 // seconds, mean JobServer queue wait over all jobs
	Fairness    float64 // Jain's index over per-tenant mean latency (1 = equal)
	TenantOrder []string
	Tenants     map[string]*TenantStats

	// SlotSeconds is the JobServer's admission-cost × execution-time
	// integral: the speculative dual-launch pays 2× here.
	SlotSeconds float64

	// Memo accounting, non-zero only when Params.MemoCache was on: lookups
	// served from the cross-job cache vs. missed (memo_hits_total /
	// memo_misses_total at end of run).
	MemoHits   int64
	MemoMisses int64

	// OutputHashes fingerprints each job's final output (job name → FNV-64a
	// of the concatenated part files), so two runs of the same workload can
	// be checked for byte-identical results.
	OutputHashes map[string]string

	// Flight-recorder results, populated only when Options.FlightRecorder
	// was set: per-tenant SLO outcomes (already cross-checked against the
	// run's raw measurements) and the sample count.
	SLO           map[string]*TenantSLOReport
	FlightSamples int64

	// flightEnv keeps the recorded simulation alive for artifact writing.
	flightEnv *Env
}

// WriteFlightArtifacts writes the series dump the options ask for. No-op
// when the run had no recorder.
func (r *ThroughputResult) WriteFlightArtifacts(o Options) error {
	if r.flightEnv == nil {
		return nil
	}
	return r.flightEnv.WriteFlightArtifacts(o)
}

// arrivalTimes expands a WorkloadConfig.Arrival spec into one absolute
// submission offset per job, deterministically from the seed.
func arrivalTimes(dist string, n int, seed int64) ([]time.Duration, error) {
	out := make([]time.Duration, n)
	switch {
	case dist == "" || dist == "burst":
		return out, nil
	case strings.HasPrefix(dist, "uniform:"):
		gap, err := time.ParseDuration(strings.TrimPrefix(dist, "uniform:"))
		if err != nil || gap < 0 {
			return nil, fmt.Errorf("bench: bad uniform arrival %q", dist)
		}
		for i := range out {
			out[i] = time.Duration(i) * gap
		}
		return out, nil
	case strings.HasPrefix(dist, "poisson:"):
		mean, err := time.ParseDuration(strings.TrimPrefix(dist, "poisson:"))
		if err != nil || mean <= 0 {
			return nil, fmt.Errorf("bench: bad poisson arrival %q", dist)
		}
		rng := rand.New(rand.NewSource(seed))
		var at time.Duration
		for i := range out {
			at += time.Duration(rng.ExpFloat64() * float64(mean))
			out[i] = at
		}
		return out, nil
	}
	return nil, fmt.Errorf("bench: unknown arrival distribution %q (want burst, uniform:<gap>, or poisson:<mean>)", dist)
}

// tenantQueues carves the cluster into equal tenant shares, leaving the
// default queue (where the AM pool lives) 30% headroom.
func tenantQueues(tenants int) []yarn.QueueConfig {
	share := 0.7 / float64(tenants)
	qs := make([]yarn.QueueConfig, tenants)
	for i := range qs {
		qs[i] = yarn.QueueConfig{Name: fmt.Sprintf("tenant-%d", i), Capacity: share}
	}
	return qs
}

// RunThroughput drives a multi-tenant WordCount stream through a JobServer
// on the D+ environment and reports latency, makespan, queue wait, and
// per-tenant fairness. Jobs alternate D+ and U+ mode; tenant assignment is
// round-robin. Everything is deterministic in (setup.Seed, cfg, o).
func RunThroughput(setup ClusterSetup, cfg WorkloadConfig, o Options) (*ThroughputResult, error) {
	o = o.normalized()
	if cfg.Jobs <= 0 || cfg.Tenants <= 0 {
		return nil, fmt.Errorf("bench: workload needs at least one job and one tenant")
	}
	v := VariantDPlus()
	v.Server = &core.JobServerConfig{Queues: tenantQueues(cfg.Tenants), Policy: cfg.Policy}
	env, err := NewEnv(o.Apply(setup), v)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	env.EnableObservability(0)
	srv := env.Srv

	// Flight recorder: cluster gauges from the env, JobServer gauges here,
	// and the SLO tracker fed through a tap that also keeps the raw waits,
	// so the tracker's percentiles and counts can be verified against an
	// independent recomputation after the run.
	var rec *flight.Recorder
	var tap *sloTap
	if o.FlightRecorder {
		rec = env.EnableFlightRecorder(DefaultSLO())
		rec.AddGauge(func(sample func(string, float64)) {
			pending := srv.PendingByTenant()
			names := make([]string, 0, len(pending))
			for n := range pending {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				sample(metrics.With("jobserver_pending_jobs", "tenant", n), float64(pending[n]))
			}
			sample("jobserver_inflight_jobs", float64(srv.InFlight()))
		})
		tap = &sloTap{inner: rec.SLO(), waits: make(map[string][]time.Duration)}
		srv.Observer = tap
	}

	mix := cfg.Mix
	if mix <= 0 {
		mix = 1
	}
	inputSets := make([][]string, mix)
	for m := 0; m < mix; m++ {
		dir := "/in/tp"
		if mix > 1 {
			dir = fmt.Sprintf("/in/tp/%d", m)
		}
		names, err := workloads.GenerateWordCountInput(env.DFS, env.Cluster, dir, workloads.WordCountConfig{
			Files: 4, FileBytes: o.bytes(2 * mb), Seed: o.Seed + int64(m),
		})
		if err != nil {
			return nil, err
		}
		inputSets[m] = names
	}
	arrivals, err := arrivalTimes(cfg.Arrival, cfg.Jobs, o.Seed)
	if err != nil {
		return nil, err
	}

	type jobEnd struct {
		tenant  string
		latency float64
	}
	var ends []jobEnd
	var firstArrival, lastDone sim.Time
	var submitErr error
	specs := make([]*mapreduce.JobSpec, cfg.Jobs)
	start := env.Eng.Now()
	firstArrival = start.Add(arrivals[0])
	for i := 0; i < cfg.Jobs; i++ {
		i := i
		ti := i % cfg.Tenants
		if cfg.Blocked {
			ti = i * cfg.Tenants / cfg.Jobs
		}
		tenant := fmt.Sprintf("tenant-%d", ti)
		mode := core.ModeDPlus
		if i%2 == 1 {
			mode = core.ModeUPlus
		}
		spec := workloads.WordCountSpec(fmt.Sprintf("wc-%s-%d", tenant, i), inputSets[i%mix], fmt.Sprintf("/out/tp/%d", i), false)
		if cfg.Speculative {
			mode = core.ModeSpeculative
			spec.JobKey = spec.Name
		}
		specs[i] = spec
		env.Eng.After(arrivals[i], func() {
			submittedAt := env.Eng.Now()
			err := srv.Submit(tenant, mode, spec, func(res *mapreduce.Result) {
				if res.Err != nil && submitErr == nil {
					submitErr = fmt.Errorf("bench: job %s failed: %w", spec.Name, res.Err)
				}
				lastDone = env.Eng.Now()
				ends = append(ends, jobEnd{tenant, lastDone.Sub(submittedAt).Seconds()})
				if len(ends) == cfg.Jobs {
					env.RM.Stop()
					env.Flight.StopIfRunning()
				}
			})
			if err != nil && submitErr == nil {
				submitErr = err
			}
		})
	}
	env.Eng.RunUntil(horizon)
	if submitErr != nil {
		return nil, submitErr
	}
	if len(ends) != cfg.Jobs {
		return nil, fmt.Errorf("bench: only %d of %d jobs finished within the horizon (pending %d)", len(ends), cfg.Jobs, srv.Pending())
	}
	if err := env.CheckResidency(); err != nil {
		return nil, err
	}

	res := &ThroughputResult{
		Policy:   srvPolicy(cfg.Policy),
		Jobs:     cfg.Jobs,
		Makespan: lastDone.Sub(firstArrival).Seconds(),
		Tenants:  make(map[string]*TenantStats),
	}
	lats := make([]float64, 0, len(ends))
	for _, e := range ends {
		lats = append(lats, e.latency)
		ts := res.Tenants[e.tenant]
		if ts == nil {
			ts = &TenantStats{}
			res.Tenants[e.tenant] = ts
		}
		ts.Jobs++
		ts.MeanLatency += e.latency
	}
	sort.Float64s(lats)
	res.P50 = percentile(lats, 0.50)
	res.P99 = percentile(lats, 0.99)
	hists := env.Reg.Histograms()
	var waitSum float64
	var waitN int64
	for i := 0; i < cfg.Tenants; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		res.TenantOrder = append(res.TenantOrder, name)
		ts := res.Tenants[name]
		if ts == nil {
			ts = &TenantStats{}
			res.Tenants[name] = ts
		}
		if ts.Jobs > 0 {
			ts.MeanLatency /= float64(ts.Jobs)
		}
		if h := hists[metrics.With("jobserver_queue_wait_seconds", "tenant", name)]; h != nil {
			ts.MeanWait = h.Mean()
			waitSum += h.Sum
			waitN += h.Count
		}
	}
	if waitN > 0 {
		res.MeanWait = waitSum / float64(waitN)
	}
	res.Fairness = jainIndex(res.TenantOrder, res.Tenants)

	// What the admission layer paid for the jobs in cluster-slot time.
	res.SlotSeconds = srv.SlotSeconds
	counters := env.Reg.Counters()
	res.MemoHits = counters["memo_hits_total"]
	res.MemoMisses = counters["memo_misses_total"]

	// Fingerprint every job's final output so runs of the same workload under
	// different decision paths (race vs direct pick) can be proven identical.
	res.OutputHashes = make(map[string]string, cfg.Jobs)
	for _, spec := range specs {
		hash := fnv.New64a()
		for p := 0; p < spec.NumReduces; p++ {
			data, err := env.DFS.Contents(mapreduce.PartFileName(spec.OutputFile, p))
			if err != nil {
				return nil, fmt.Errorf("bench: reading output of %s: %w", spec.Name, err)
			}
			hash.Write(data)
		}
		res.OutputHashes[spec.Name] = fmt.Sprintf("%016x", hash.Sum64())
	}

	if rec != nil {
		if err := collectSLO(res, env, tap); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sloTap sits between the JobServer and the SLO tracker: it forwards every
// admission and keeps its own copy of the wait, so the tracker's outputs
// can be verified against a from-scratch recomputation.
type sloTap struct {
	inner core.AdmissionObserver
	waits map[string][]time.Duration
}

func (t *sloTap) JobAdmitted(tenant string, wait time.Duration) {
	t.waits[tenant] = append(t.waits[tenant], wait)
	t.inner.JobAdmitted(tenant, wait)
}

// JobCompleted is not an SLO event: no job has a deadline to miss.
func (t *sloTap) JobCompleted(string, bool) {}

// collectSLO fills ThroughputResult's flight fields and enforces the
// recorder's contract: no series lost a sample to its ring, and for every
// tenant the tracker's counts match the tap's and its bucket-interpolated
// p99 queue wait lands within one histogram bucket of the nearest-rank p99
// computed from the raw waits.
func collectSLO(res *ThroughputResult, env *Env, tap *sloTap) error {
	rec := env.Flight
	if n := rec.Evicted(); n > 0 {
		return fmt.Errorf("bench: flight recorder evicted %d samples; the run outlasted the series ring", n)
	}
	slo := rec.SLO()
	res.FlightSamples = rec.Samples()
	res.SLO = make(map[string]*TenantSLOReport)
	res.flightEnv = env

	target := slo.Config().TargetWait
	for _, tn := range slo.Tenants() {
		total, bad := slo.Events(tn)
		rep := &TenantSLOReport{
			TargetSeconds: target.Seconds(),
			P99Wait:       slo.P99Wait(tn),
			Events:        total,
			Bad:           bad,
		}

		var waits []float64
		var rawBad int64
		for _, w := range tap.waits[tn] {
			if w > target {
				rawBad++
			}
			waits = append(waits, w.Seconds())
		}
		if rawTotal := int64(len(waits)); rawTotal != total || rawBad != bad {
			return fmt.Errorf("bench: SLO tracker for %s counted (%d,%d) events, tap saw (%d,%d)",
				tn, total, bad, rawTotal, rawBad)
		}
		sort.Float64s(waits)
		rep.RawP99Wait = percentile(waits, 0.99)
		if err := quantilesAgree(rep.P99Wait, rep.RawP99Wait); err != nil {
			return fmt.Errorf("bench: tenant %s p99 queue wait: %w", tn, err)
		}
		res.SLO[tn] = rep
	}
	return nil
}

// quantilesAgree checks that a bucket-interpolated quantile and a raw
// nearest-rank quantile fall in the same or adjacent histogram bucket —
// the tightest bound interpolation can honestly promise (the interpolated
// rank can sit one sample below the nearest-rank sample).
func quantilesAgree(interp, raw float64) error {
	bi := sort.SearchFloat64s(metrics.DefaultDurationBuckets, interp)
	br := sort.SearchFloat64s(metrics.DefaultDurationBuckets, raw)
	if bi > br+1 || br > bi+1 {
		return fmt.Errorf("interpolated %.4fs (bucket %d) vs raw %.4fs (bucket %d)", interp, bi, raw, br)
	}
	return nil
}

func srvPolicy(p core.AdmissionPolicy) core.AdmissionPolicy {
	if p == "" {
		return core.PolicyFIFO
	}
	return p
}

// percentile reads the p-quantile of sorted samples by the nearest-rank
// definition: the smallest value with at least ⌈p·n⌉ samples at or below it.
// (The old int(p·n) indexing was off by one — p50 of 10 samples read index 5,
// the 6th value, and p100 always needed the clamp.)
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// jainIndex computes Jain's fairness index (Σx)²/(n·Σx²) over per-tenant
// mean latency: 1.0 when every tenant sees the same average latency, 1/n
// when one tenant absorbs all the delay.
func jainIndex(order []string, tenants map[string]*TenantStats) float64 {
	var sum, sumSq float64
	n := 0
	for _, name := range order {
		x := tenants[name].MeanLatency
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// Throughput is the registered multi-job experiment: the same 60-job,
// 3-tenant Poisson stream through the JobServer under FIFO and weighted-fair
// admission. Jobs arrive in tenant blocks (tenant-0's batch first) — the
// regime where the policies diverge: FIFO drains each backlog in arrival
// order while weighted-fair interleaves tenants. Columns are makespan,
// p50/p99 job latency, mean queue wait (all seconds), and Jain's per-tenant
// fairness index (dimensionless).
func Throughput(o Options) (*Figure, error) {
	o = o.normalized()
	fig := &Figure{
		ID:      "throughput",
		Title:   "JobServer throughput: 60 jobs, 3 tenants, Poisson arrivals (A3x4, D+ env)",
		XLabel:  "admission policy",
		Columns: []string{"makespan", "p50", "p99", "mean-wait", "fairness"},
		Notes: []string{
			"fairness is Jain's index over per-tenant mean latency (1 = perfectly even)",
			"mean-wait is time queued in the JobServer before admission",
		},
	}
	workload := func(policy core.AdmissionPolicy) WorkloadConfig {
		return WorkloadConfig{
			Jobs: 60, Tenants: 3, Arrival: "poisson:250ms", Policy: policy, Blocked: true,
		}
	}
	var wfair *ThroughputResult
	for i, policy := range []core.AdmissionPolicy{core.PolicyFIFO, core.PolicyWeightedFair} {
		r, err := RunThroughput(A3x4(), workload(policy), o)
		if err != nil {
			return nil, err
		}
		if policy == core.PolicyWeightedFair {
			wfair = r
		}
		fig.Points = append(fig.Points, Point{
			X: float64(i), Label: string(policy),
			Seconds: map[string]float64{
				"makespan": r.Makespan, "p50": r.P50, "p99": r.P99,
				"mean-wait": r.MeanWait, "fairness": r.Fairness,
			},
		})
	}

	// Third row: the weighted-fair run again with the flight recorder on.
	// Recording must be a pure observer — every job's output has to hash
	// identically to the recorder-off row — and RunThroughput has already
	// cross-checked the recorder's p99s and counts against the run's own
	// raw measurements. This row is also where the series dump comes from
	// when a path is set.
	fo := o
	fo.FlightRecorder = true
	fr, err := RunThroughput(A3x4(), workload(core.PolicyWeightedFair), fo)
	if err != nil {
		return nil, err
	}
	for job, want := range wfair.OutputHashes {
		if got := fr.OutputHashes[job]; got != want {
			return nil, fmt.Errorf("bench: recorder changed %s output: %s vs %s", job, got, want)
		}
	}
	fig.Points = append(fig.Points, Point{
		X: 2, Label: "wfair+recorder",
		Seconds: map[string]float64{
			"makespan": fr.Makespan, "p50": fr.P50, "p99": fr.P99,
			"mean-wait": fr.MeanWait, "fairness": fr.Fairness,
		},
	})
	fig.Notes = append(fig.Notes,
		"wfair+recorder re-runs the wfair row with the flight recorder sampling every 250ms of virtual time; outputs are verified byte-identical and all columns must match the recorder-off row")
	if err := fr.WriteFlightArtifacts(fo); err != nil {
		return nil, err
	}
	return fig, nil
}
