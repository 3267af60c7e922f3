package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// child is one finished child process: what it reported plus what only the
// parent can see.
type child struct {
	passResult
	wall time.Duration
}

// runPass re-executes this binary for one cold pass. workloads.streamCache
// and bench.sharedMapCache are process globals, so a second pass in one
// process would measure cache hits; a fresh child is what a user of
// `mrapid-bench -run figN` pays. Children run strictly one at a time.
func runPass(ctx context.Context, workload string, seed int64, extra ...string) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-pass", workload, "-seed", fmt.Sprint(seed)}, extra...)
	cmd := exec.CommandContext(ctx, self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	err = cmd.Run() // waits for the child to end, also when ctx kills it
	c := &child{wall: time.Since(start)}
	if err != nil {
		return nil, fmt.Errorf("pass %s: %w", workload, err)
	}
	if err := json.Unmarshal(out.Bytes(), &c.passResult); err != nil {
		return nil, fmt.Errorf("pass %s: decoding the child's report: %w", workload, err)
	}
	st := cmd.ProcessState
	c.E2E["cpu_s"] = (st.UserTime() + st.SystemTime()).Seconds()
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		c.E2E["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return c, nil
}

// workloadResult is one workload's row of a ledger entry.
type workloadResult struct {
	Workload  string             `json:"workload"`
	Size      string             `json:"size"`
	Seed      int64              `json:"seed"`
	Ops       int                `json:"ops"`
	OpsFailed int                `json:"ops_failed"`
	Failures  []string           `json:"failures,omitempty"`
	Digest    string             `json:"digest"`
	E2E       map[string]summary `json:"end_to_end"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`

	attempted, failed int // summed over every child, for the driver
}

func (r *workloadResult) book(c *child) {
	r.attempted += c.Ops
	r.failed += c.Failed
	if c.Failed > 0 && r.OpsFailed == 0 {
		r.OpsFailed, r.Failures = c.Failed, c.Failures
	}
}

// minReps is the fewest repetitions a time-bounded run takes a median of.
const minReps = 3

// coldPasses runs untraced children of w one after another: reps of them,
// or with budget > 0 as many as fit in that much wall time (at least
// minReps).
func coldPasses(ctx context.Context, w *workload, seed int64, reps int, budget time.Duration) ([]*child, error) {
	var children []*child
	start := time.Now()
	var longest time.Duration
	for n := 0; ; n++ {
		if budget <= 0 && n >= reps {
			break
		}
		if budget > 0 && n >= minReps && time.Since(start)+longest > budget {
			break
		}
		c, err := runPass(ctx, w.Name, seed)
		if err != nil {
			return nil, err
		}
		longest = max(longest, c.wall)
		children = append(children, c)
	}
	return children, nil
}

// reduceRuns reports each end-to-end metric as the median over children.
// Virtual-clock values and output digests must be bit-identical across the
// repetitions: that is the determinism contract, checked here for free.
func reduceRuns(w *workload, seed int64, children []*child) (*workloadResult, error) {
	r := &workloadResult{Workload: w.Name, Size: w.Size, Seed: seed, E2E: map[string]summary{}}
	samples := map[string][]float64{}
	for n, c := range children {
		r.book(c)
		if n == 0 {
			r.Ops, r.Digest = c.Ops, c.Digest
		} else if c.Digest != r.Digest {
			return nil, fmt.Errorf("%s: outputs of repetition %d differ from the first (%s vs %s)", w.Name, n, c.Digest, r.Digest)
		}
		for _, m := range e2eMetrics {
			v := c.E2E[m.Name]
			if s := samples[m.Name]; m.Exact && len(s) > 0 && v != s[0] {
				return nil, fmt.Errorf("%s: %s is %v in repetition %d and %v in the first: the virtual clock is not deterministic", w.Name, m.Name, v, n, s[0])
			}
			samples[m.Name] = append(samples[m.Name], v)
		}
	}
	for name, s := range samples {
		r.E2E[name] = summarize(s)
	}
	return r, nil
}

func measure(ctx context.Context, w *workload, seed int64, reps int, budget time.Duration) (*workloadResult, error) {
	children, err := coldPasses(ctx, w, seed, reps, budget)
	if err != nil {
		return nil, err
	}
	return reduceRuns(w, seed, children)
}

// traceWorkload runs the traced pass of w, its own child and never mixed
// into the end-to-end medians, and fills r.Layers with the per-layer
// metrics of kinds 1 to 3. The tracing overhead is the traced pass's
// sim.run_s against the untraced host_s median already in r.
func traceWorkload(ctx context.Context, w *workload, r *workloadResult, spanFile string) error {
	c, err := runPass(ctx, w.Name, r.Seed, "-traced", "-spans", spanFile)
	if err != nil {
		return err
	}
	r.book(c)
	if c.Digest != r.Digest {
		return fmt.Errorf("%s: tracing changed the outputs (%s vs %s)", w.Name, c.Digest, r.Digest)
	}
	r.Layers = c.Layers
	base := r.E2E["host_s"].Median
	overhead := func(runS float64) float64 { return (runS - base) / base * 100 }
	r.Layers["trace.overhead_pct"] = overhead(c.Layers["sim.run_s"])
	if w.Name == "cluster_stream" {
		// The flight recorder rides on a second traced child, so its cost
		// separates from the tracer's.
		f, err := runPass(ctx, w.Name, r.Seed, "-traced", "-flight")
		if err != nil {
			return err
		}
		r.book(f)
		if f.Digest != r.Digest {
			return fmt.Errorf("%s: the flight recorder changed the outputs", w.Name)
		}
		r.Layers["flight.overhead_pct"] = overhead(f.Layers["sim.run_s"]) - r.Layers["trace.overhead_pct"]
		r.Layers["flight.samples"] = f.Layers["flight.samples"]
	}
	for _, m := range e2eMetrics {
		if m.Exact && c.E2E[m.Name] != r.E2E[m.Name].Median {
			return fmt.Errorf("%s: tracing changed %s (%v vs %v)", w.Name, m.Name, c.E2E[m.Name], r.E2E[m.Name].Median)
		}
	}
	return nil
}

// machine records where a ledger entry was measured.
type machine struct {
	CPUs     int    `json:"nproc"`
	CPUModel string `json:"cpu_model"`
	Go       string `json:"go"`
	OS       string `json:"os"`
}

func thisMachine() machine {
	m := machine{CPUs: runtime.NumCPU(), Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// suiteResult is one ledger entry: every workload's end-to-end medians and
// per-layer metrics, the probes, and where and how it was measured.
type suiteResult struct {
	Machine   machine            `json:"machine"`
	Seed      int64              `json:"seed"`
	Reps      int                `json:"reps"`
	WallS     float64            `json:"wall_s"`
	Workloads []*workloadResult  `json:"workloads"`
	Probes    map[string]float64 `json:"probes"`
}

// runSuites measures the given workloads sides times over: per workload,
// reps untraced children and one traced pass for each side, then the
// probes. With two sides the children alternate between them, so both
// medians sample the same minutes of a machine whose speed drifts.
func runSuites(ctx context.Context, ws []*workload, seed int64, reps int, outDir string, sides int) ([]*suiteResult, error) {
	start := time.Now()
	suites := make([]*suiteResult, sides)
	for i := range suites {
		suites[i] = &suiteResult{Machine: thisMachine(), Seed: seed, Reps: reps}
	}
	for _, w := range ws {
		fmt.Fprintf(os.Stderr, "%s: %d cold passes + %d traced\n", w.Name, reps*sides, sides)
		children, err := coldPasses(ctx, w, seed, reps*sides, 0)
		if err != nil {
			return nil, err
		}
		for side, s := range suites {
			var mine []*child
			for i := side; i < len(children); i += sides {
				mine = append(mine, children[i])
			}
			r, err := reduceRuns(w, seed, mine)
			if err != nil {
				return nil, err
			}
			if err := traceWorkload(ctx, w, r, spanPath(outDir, w.Name)); err != nil {
				return nil, err
			}
			s.Workloads = append(s.Workloads, r)
		}
	}
	for _, s := range suites {
		s.Probes = runProbes()
		s.WallS = time.Since(start).Seconds()

		emitted := map[string]float64{}
		for _, r := range s.Workloads {
			for n, v := range r.Layers {
				emitted[n] = v
			}
		}
		for n, v := range s.Probes {
			emitted[n] = v
		}
		if err := checkEmitted(emitted, len(ws) == len(workloadList)); err != nil {
			return nil, err
		}
	}
	return suites, nil
}

func (s *suiteResult) failed() int {
	n := 0
	for _, r := range s.Workloads {
		n += r.failed
	}
	return n
}

// comparison is one row of -selfcheck: one metric on one workload, measured
// twice on the same code.
type comparison struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	First    summary `json:"first"`
	Second   summary `json:"second"`
	Limit    limit   `json:"limit"`
	Verdict  verdict `json:"verdict"`
	Within   bool    `json:"within_limit"`
}

// compareSuites judges b against a metric by metric with each metric's own
// limit. Host-clock per-layer metrics have no limit and are left out; the
// deterministic ones must agree exactly.
func compareSuites(a, b *suiteResult) []comparison {
	var rows []comparison
	row := func(workload string, m metric, x, y summary) {
		v, within := compare(x, y, m.limit(), m.Better)
		rows = append(rows, comparison{workload, m.Name, m.Unit, x, y, m.limit(), v, within})
	}
	for i, ra := range a.Workloads {
		rb := b.Workloads[i]
		for _, m := range e2eMetrics {
			row(ra.Workload, m, ra.E2E[m.Name], rb.E2E[m.Name])
		}
		for _, m := range layerMetrics {
			if m.Exact {
				row(ra.Workload, m, summarize([]float64{ra.Layers[m.Name]}), summarize([]float64{rb.Layers[m.Name]}))
			}
		}
	}
	return rows
}
