package bench

import (
	"fmt"

	"mrapid/internal/core"
	"mrapid/internal/query"
)

// memoWorkload is the repeat-heavy job stream both Memo rows run: three
// tenants resubmitting the same three WordCount jobs (Mix=3 input sets,
// job i reads set i%3) under fresh JobKeys, so not the history — only the
// digest-keyed memo cache — can recognize a repeat. Every set's first submission must execute; with the
// cache on, later revisits whose first run has committed are served without
// launching anything.
func memoWorkload() WorkloadConfig {
	return WorkloadConfig{
		Jobs: 18, Tenants: 3, Arrival: "uniform:2s",
		Speculative: true, Mix: 3,
	}
}

// memoVariantPlan is dagQueryPlan(0) with the final sort flipped ascending:
// the two group-by branches and the join compile to byte-identical stage
// signatures, so a warm cache serves them, while the order-by is novel and
// must run — the partial-overlap case of cross-query reuse.
func memoVariantPlan() *query.Plan { return WarehouseQuery(100, 20, false) }

// memoWins counts, per query of a stream, the stages served from the cache.
func memoWins(r *QueryStreamResult) []int {
	wins := make([]int, len(r.Results))
	for i, res := range r.Results {
		for _, w := range res.Winners {
			if w == core.ModeMemo {
				wins[i]++
			}
		}
	}
	return wins
}

// Memo is the registered cross-job memoization experiment, in two halves.
//
// Jobs: an 18-job, 3-tenant speculative stream cycling over three distinct
// input sets under fresh JobKeys — a repeat-heavy trace where only the
// digest-keyed cache can recognize a resubmission. Cache off, every job
// pays the full dual-launch; cache on, revisits are served from the cache
// without an AM or a container.
//
// Queries: a cold join-heavy query, its exact repeat, and a variant sharing
// all but the final sort, run through the DAG runner cache off vs on —
// cross-query intermediate reuse via the query layer's stage signatures.
//
// Both halves enforce the cache's correctness contract: every output is
// byte-identical (job hashes, query rows) between the off and on rows, the
// exact repeat must be served entirely from the cache, the variant must hit
// on exactly its shared subtree, and the warm rows must win on makespan and
// slot-seconds.
func Memo(o Options) (*Figure, error) {
	o = o.normalized()
	fig := &Figure{
		ID:      "memo",
		Title:   "Cross-job memoization: repeat-heavy jobs and overlapping queries, cache off vs on (A3x4, D+ env)",
		XLabel:  "workload / cache",
		Columns: []string{"makespan", "slot-sec", "hits", "misses", "hit-rate"},
		Notes: []string{
			"jobs: 18 speculative WordCounts over 3 input sets, fresh JobKeys — repeats only the digest cache can see",
			"queries: cold + exact repeat + shared-subtree variant through the DAG runner, submitted sequentially",
			"slot-sec is admission-cost × execution-time (jobs) or the query server's same integral (queries)",
			"outputs are byte-identical between cache-off and cache-on rows (enforced)",
		},
	}
	addPoint := func(label string, makespan, slotSec float64, hits, misses int64) {
		rate := 0.0
		if hits+misses > 0 {
			rate = float64(hits) / float64(hits+misses)
		}
		fig.Points = append(fig.Points, Point{
			X: float64(len(fig.Points)), Label: label,
			Seconds: map[string]float64{
				"makespan": makespan, "slot-sec": slotSec,
				"hits": float64(hits), "misses": float64(misses), "hit-rate": rate,
			},
		})
	}

	// Jobs half. The off rows stay off even when the run's options turn the
	// cache on everywhere else.
	o.MemoCache = false
	off, err := RunThroughput(A3x4(), memoWorkload(), o)
	if err != nil {
		return nil, fmt.Errorf("bench: memo jobs, cache off: %w", err)
	}
	oOn := o
	oOn.MemoCache = true
	on, err := RunThroughput(A3x4(), memoWorkload(), oOn)
	if err != nil {
		return nil, fmt.Errorf("bench: memo jobs, cache on: %w", err)
	}
	for job, want := range off.OutputHashes {
		if got := on.OutputHashes[job]; got != want {
			return nil, fmt.Errorf("bench: memo changed %s output: %s vs %s", job, got, want)
		}
	}
	if on.MemoHits == 0 {
		return nil, fmt.Errorf("bench: repeat-heavy stream produced no cache hits (misses %d)", on.MemoMisses)
	}
	if on.SlotSeconds >= off.SlotSeconds {
		return nil, fmt.Errorf("bench: cache-on slot-seconds %.2f did not beat cache-off %.2f", on.SlotSeconds, off.SlotSeconds)
	}
	addPoint("jobs/off", off.Makespan, off.SlotSeconds, 0, 0)
	addPoint("jobs/on", on.Makespan, on.SlotSeconds, on.MemoHits, on.MemoMisses)
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"jobs: %d/%d lookups hit; cache-on saves %.1f%% slot-seconds and %.1f%% makespan",
		on.MemoHits, on.MemoHits+on.MemoMisses,
		(off.SlotSeconds-on.SlotSeconds)/off.SlotSeconds*100,
		(off.Makespan-on.Makespan)/off.Makespan*100))

	// Queries half: a cold join-heavy query, its exact repeat, and a variant
	// sharing everything but the final sort, each submitted when the previous
	// one is done so it sees its predecessors' committed outputs. The only
	// difference between the rows is whether the cache is attached.
	setup := A3x4()
	setup.Seed = o.Seed
	qs := QueryStream{
		Plans:         []*query.Plan{dagQueryPlan(0), dagQueryPlan(0), memoVariantPlan()},
		AfterPrevious: true,
	}
	qoff, err := RunQueryStream(setup, qs, o)
	if err != nil {
		return nil, fmt.Errorf("bench: memo queries, cache off: %w", err)
	}
	qon, err := RunQueryStream(setup, qs, oOn)
	if err != nil {
		return nil, fmt.Errorf("bench: memo queries, cache on: %w", err)
	}
	if err := SameQueryRows("cache off", qoff, "cache on", qon); err != nil {
		return nil, err
	}
	wins := memoWins(qon)
	stages := func(i int) int { return qon.Results[i].Stages }
	if wins[0] != 0 {
		return nil, fmt.Errorf("bench: cold query won %d stages from an empty cache", wins[0])
	}
	if wins[1] != stages(1) {
		return nil, fmt.Errorf("bench: exact repeat won %d of %d stages from the cache", wins[1], stages(1))
	}
	if wins[2] != stages(2)-1 {
		return nil, fmt.Errorf("bench: shared-subtree variant won %d of %d stages, want all but the sort", wins[2], stages(2))
	}
	if qon.Makespan >= qoff.Makespan {
		return nil, fmt.Errorf("bench: cache-on query makespan %.2fs did not beat cache-off %.2fs", qon.Makespan, qoff.Makespan)
	}
	addPoint("query/off", qoff.Makespan, qoff.SlotSeconds, 0, 0)
	addPoint("query/on", qon.Makespan, qon.SlotSeconds, qon.MemoHits, qon.MemoMisses)
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"queries: repeat served %d/%d stages, variant %d/%d (all but the sort); cache-on beats cache-off makespan by %.1f%%",
		wins[1], stages(1), wins[2], stages(2),
		(qoff.Makespan-qon.Makespan)/qoff.Makespan*100))
	return fig, nil
}
