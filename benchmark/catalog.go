package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// metric is one entry of the benchmark's catalogue. BENCHMARK.json, the
// drift test and the names and units of every run's output are derived from
// the two lists below; README.md says what each metric measures.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"

	// End-to-end metrics only. Bound is the share of the base median by
	// which the metric may worsen before it counts as a regression, the
	// value BENCHMARK.json carries. Floor is an absolute allowance that
	// replaces the share when larger (host clock only). Exact metrics are
	// deterministic: two runs on one seed must agree to the last bit.
	Bound float64
	Floor float64
	Exact bool

	// Per-layer metrics only: 1 spans around the benchmark's own calls,
	// 2 replay of the pure data path, 3 counts read at end of run,
	// 4 probes of one layer in isolation.
	Kind int
}

// limit is the allowance -selfcheck and comparisons between two ledger
// entries apply to m. Exact metrics compare bit for bit.
func (m metric) limit() limit {
	if m.Exact {
		return limit{}
	}
	return limit{Share: m.Bound, Floor: m.Floor}
}

// vsec is the unit of the virtual clock: seconds of simulated time, which a
// seed determines exactly. It is kept apart from "s", the host clock.
const vsec = "vsec"

var e2eMetrics = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.1},
	{Name: "host_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.1},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "mallocs_k", Unit: "kobj", Better: "lower", Bound: 0.12},
	{Name: "virt_makespan_s", Unit: vsec, Better: "lower", Bound: 0.03, Exact: true},
	{Name: "virt_job_mean_s", Unit: vsec, Better: "lower", Bound: 0.03, Exact: true},
	{Name: "virt_job_p99_s", Unit: vsec, Better: "lower", Bound: 0.03, Exact: true},
	{Name: "virt_slot_s", Unit: vsec, Better: "lower", Bound: 0.03, Exact: true},
}

var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []metric {
	var ms []metric
	add := func(kind int, better, unit string, names ...string) {
		for _, n := range names {
			ms = append(ms, metric{Name: n, Unit: unit, Better: better, Kind: kind, Exact: kind == 3})
		}
	}
	// Kind 1: host-clock spans around the benchmark's own calls.
	add(1, "lower", "s", "bench.newenv_s", "workloads.generate_s", "workloads.terasample_s",
		"query.compile_s", "sim.run_s", "bench.verify_s")
	add(1, "lower", "%", "trace.overhead_pct", "flight.overhead_pct")
	// Kind 2: replay of the pure data path on the workload's own bytes.
	add(2, "lower", "s", "mapreduce.map_exec_s", "mapreduce.reduce_exec_s", "shuffle.consolidate_s", "sim.residual_s")
	// Kind 3: deterministic counts read at end of run.
	add(3, "lower", "count", "sim.events", "sim.max_pending", "yarn.allocations", "yarn.containers",
		"mapreduce.map_records", "mapreduce.map_pairs", "mapreduce.task_attempts", "shuffle.fetches",
		"core.backlog_max", "core.backlog_at_last_arrival", "memo.misses", "query.stages", "flight.samples")
	add(3, "higher", "count", "memo.hits", "query.stages_from_memo", "query.max_concurrent")
	add(3, "higher", "ratio", "mapreduce.mapcache_hit_ratio", "memo.hit_ratio")
	add(3, "lower", "MB", "hdfs.input_mb", "mapreduce.map_out_mb", "mapreduce.shuffle_mb_memory",
		"mapreduce.shuffle_mb_disk", "mapreduce.shuffle_mb_network", "memo.mem_mb")
	add(3, "higher", "MB", "shuffle.combine_saved_mb", "shuffle.compress_saved_mb", "query.hdfs_avoided_mb")
	add(3, "lower", vsec, "yarn.alloc_wait_mean_vs", "core.queue_wait_mean_vs", "core.queue_wait_p99_vs",
		"core.arrival_span_vs",
		"report.submit_vs", "report.am_vs", "report.schedule_vs", "report.launch_vs", "report.map_vs",
		"report.shuffle_vs", "report.commit_vs", "report.reduce_vs", "report.notify_vs", "report.other_vs",
		"bench.virt_hadoop_s", "bench.virt_uber_s", "bench.virt_dplus_s", "bench.virt_uplus_s")
	ms = append(ms, metric{Name: "sim.events_per_host_s", Unit: "1/s", Better: "higher", Kind: 3})
	// Kind 4: probes. A latency probe has an allocations twin.
	for _, n := range []string{"sim.probe_event_ns", "yarn.probe_stock_alloc_us", "core.probe_dplus_alloc_us",
		"hdfs.probe_splits_us", "mapreduce.probe_fingerprint_us", "core.probe_decide_ns", "memo.probe_lookup_ns",
		"memo.probe_commit_us", "query.probe_compile_us", "metrics.probe_counter_ns", "metrics.probe_histogram_ns",
		"trace.probe_span_ns", "flight.probe_tick_us"} {
		add(4, "lower", n[len(n)-2:], n)
		add(4, "lower", "allocs/op", n[:len(n)-3]+"_allocs")
	}
	add(4, "higher", "MB/s", "hdfs.probe_put_mb_s", "hdfs.probe_digest_mb_s", "workloads.probe_corpus_mb_s",
		"mapreduce.probe_map_wc_mb_s", "mapreduce.probe_map_wc_combine_mb_s", "mapreduce.probe_map_tera_mb_s")
	add(4, "higher", "Mrows/s", "workloads.probe_teragen_mrows_s")
	add(4, "higher", "Mpairs/s", "mapreduce.probe_reduce_wc_mpairs_s", "mapreduce.probe_reduce_tera_mpairs_s",
		"shuffle.probe_consolidate_mpairs_s")
	return ms
}

// runSeconds is how long one driver run measures.
const runSeconds = 20

// benchmarkJSON renders BENCHMARK.json from the catalogue.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadList {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range e2eMetrics {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range layerMetrics {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

// checkEmitted holds the per-layer names a run produced against the
// catalogue. A name the catalogue lacks is always an error: a typo in a
// ledger or probe name would otherwise read 0 for ever. A full suite run,
// over all workloads and the probes, must also fill every catalogue name; a
// single workload fills only the layers it exercises.
func checkEmitted(emitted map[string]float64, full bool) error {
	known := map[string]bool{}
	var missing []string
	for _, m := range layerMetrics {
		known[m.Name] = true
		if _, ok := emitted[m.Name]; !ok && full {
			missing = append(missing, m.Name)
		}
	}
	var unknown []string
	for n := range emitted {
		if !known[n] {
			unknown = append(unknown, n)
		}
	}
	sort.Strings(unknown)
	switch {
	case len(unknown) > 0:
		return fmt.Errorf("per-layer metrics emitted but not in the catalogue: %s", strings.Join(unknown, ", "))
	case len(missing) > 0:
		return fmt.Errorf("per-layer metrics in the catalogue that no workload or probe emitted: %s", strings.Join(missing, ", "))
	}
	return nil
}
