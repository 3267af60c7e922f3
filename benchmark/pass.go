package main

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"runtime"
	"time"
)

// passResult is what one child process reports on its standard output: one
// cold pass over one workload. The parent adds what only it can see (CPU
// time and peak RSS of the whole child) and takes medians over children.
type passResult struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Traced   bool     `json:"traced"`
	Ops      int      `json:"ops"`
	Failed   int      `json:"ops_failed"`
	Failures []string `json:"failures,omitempty"`

	// E2E holds the end-to-end metrics a child can measure itself.
	E2E map[string]float64 `json:"e2e"`
	// Layers holds the per-layer metrics of kinds 1–3; traced passes only.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Digest fingerprints every output the pass verified. It is the same
	// for every repetition of one (workload, seed).
	Digest string `json:"digest"`
}

// hostSpan is one span on the host clock around a call the benchmark makes
// into a layer. Times are seconds since the pass began; Parent indexes the
// enclosing span, -1 at the top.
type hostSpan struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
}

// pass accumulates one cold pass over a workload.
type pass struct {
	seed   int64
	traced bool // observability on, per-layer ledger kept
	flight bool // traced, and the flight recorder attached too (cluster_stream)
	began  time.Time

	spans []hostSpan
	open  []int // stack of open span indices

	setup   time.Duration // host time in set-up phases
	host    time.Duration // host time inside Env.Run / Eng.RunUntil
	alloc   uint64        // bytes allocated inside the host region
	mallocs uint64        // heap objects allocated inside the host region

	ops      int
	failed   int
	failures []string

	// Virtual-clock results.
	latencies []float64          // client-observed seconds per job or query
	makespan  float64            // Σ over simulations of first submission → last completion
	slot      float64            // admission cost × execution seconds
	modes     map[string]float64 // Σ completion seconds per execution mode

	digest hash.Hash64
	ledger *ledger // per-layer accounting; nil unless traced
}

func newPass(seed int64, traced, flight bool) *pass {
	p := &pass{seed: seed, traced: traced, flight: flight, began: time.Now(), modes: map[string]float64{}, digest: fnv.New64a()}
	if traced {
		p.ledger = newLedger()
	}
	return p
}

// span times fn under a named span nested in whichever span is open.
func (p *pass) span(name string, fn func()) time.Duration {
	parent := -1
	if n := len(p.open); n > 0 {
		parent = p.open[n-1]
	}
	id := len(p.spans)
	start := time.Now()
	p.spans = append(p.spans, hostSpan{Name: name, Parent: parent, Start: start.Sub(p.began).Seconds()})
	p.open = append(p.open, id)
	fn()
	d := time.Since(start)
	p.open = p.open[:len(p.open)-1]
	p.spans[id].End = p.spans[id].Start + d.Seconds()
	return d
}

// setupPhase times fn as set-up: its span counts towards setup_s.
func (p *pass) setupPhase(fn func()) {
	p.setup += p.span("setup", fn)
}

// simRun times fn as the measured region: host_s and alloc_mb are taken
// across it and nothing else. fn drives one simulation from submission to
// its last completion.
func (p *pass) simRun(fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.host += p.span("sim.run", fn)
	runtime.ReadMemStats(&after)
	p.alloc += after.TotalAlloc - before.TotalAlloc
	p.mallocs += after.Mallocs - before.Mallocs
}

// verify times the benchmark's own output checking, which is in neither
// setup_s nor host_s.
func (p *pass) verify(fn func()) {
	p.span("bench.verify", fn)
}

// op counts one submitted job or query; a non-nil err makes it a failed one.
func (p *pass) op(what string, err error) {
	p.ops++
	if err != nil {
		p.failed++
		p.failures = append(p.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// job records a finished job's virtual-clock result.
func (p *pass) job(mode string, seconds float64) {
	p.latencies = append(p.latencies, seconds)
	if mode != "" {
		p.modes[mode] += seconds
	}
}

// spanSeconds sums the durations of the spans with the given name.
func (p *pass) spanSeconds(name string) float64 {
	var s float64
	for _, sp := range p.spans {
		if sp.Name == name {
			s += sp.End - sp.Start
		}
	}
	return s
}

const mib = float64(1 << 20)

// result assembles the child's report.
func (p *pass) result(workload string) *passResult {
	r := &passResult{
		Workload: workload, Seed: p.seed, Traced: p.traced,
		Ops: p.ops, Failed: p.failed, Failures: p.failures,
		Digest: fmt.Sprintf("%016x", p.digest.Sum64()),
		E2E: map[string]float64{
			"setup_s":         p.setup.Seconds(),
			"host_s":          p.host.Seconds(),
			"alloc_mb":        float64(p.alloc) / mib,
			"mallocs_k":       float64(p.mallocs) / 1e3,
			"virt_makespan_s": p.makespan,
			"virt_job_mean_s": mean(p.latencies),
			"virt_job_p99_s":  percentile(p.latencies, 0.99),
			"virt_slot_s":     p.slot,
		},
	}
	if p.traced {
		r.Layers = p.ledger.metrics(p)
	}
	return r
}

// writeSpans writes the pass's host-clock spans as JSON.
func (p *pass) writeSpans(path, workload string) error {
	data, err := json.MarshalIndent(struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Unit     string     `json:"unit"`
		Spans    []hostSpan `json:"spans"`
	}{workload, p.seed, "host seconds since the pass began", p.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
