// Command benchmark is the repository's two-clock benchmark: five workloads,
// end-to-end metrics on the host clock (what it costs to run the simulator)
// and on the virtual clock (what the simulated cluster would take, the
// paper's metric), and a per-layer ledger measured from outside every
// package. See README.md beside this file.
//
//	go run . [-workload name] [-seed 1] [-reps 5] [-out ledger.json]
//	go run . -selfcheck [-out results/selfcheck.json]
//	go run . -workload wc_modes -cpuprofile cpu.prof
//
// The driver's form prints one JSON object as the last line of output:
//
//	bash benchmark/run.sh --workload wc_modes --seed 3 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all five)")
		seed         = flag.Int64("seed", 1, "seed of the input generators")
		reps         = flag.Int("reps", 5, "cold passes per workload whose median is reported")
		seconds      = flag.Int("seconds", 0, "with -trace 0: wall seconds one run measures for (default 20)")
		traceMode    = flag.Int("trace", -1, "driver form: 0 prints the end-to-end metrics, 1 the per-layer metrics, as one JSON line")
		selfcheck    = flag.Bool("selfcheck", false, "run the whole suite twice and compare the two with each metric's own bound")
		out          = flag.String("out", "", "also write the result as JSON to this file")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of one -workload pass (relative paths land in the system temp directory)")
		memProfile   = flag.String("memprofile", "", "write an allocation profile of one -workload pass (same)")
		printJSON    = flag.Bool("benchmark-json", false, "print BENCHMARK.json as the catalogue defines it and exit")

		passName = flag.String("pass", "", "internal: run one pass of this workload in this process and report it as JSON")
		traced   = flag.Bool("traced", false, "internal: with -pass, enable observability and the per-layer ledger")
		withFl   = flag.Bool("flight", false, "internal: with -pass -traced, also attach the flight recorder")
		spanFile = flag.String("spans", "", "internal: with -pass, write the host-clock spans to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	if *printJSON {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if *passName != "" {
		os.Exit(childMain(*passName, *seed, *traced, *withFl, *spanFile, *cpuProfile, *memProfile))
	}

	// A signal cancels the context, which kills the running child; runPass
	// has waited for it by the time the error comes back.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ws, err := selectWorkloads(*workloadName)
	if err != nil {
		fatal(err)
	}
	outDir := outputDir()

	switch {
	case *traceMode == 0 || *traceMode == 1:
		if len(ws) != 1 {
			fatal(fmt.Errorf("-trace needs -workload"))
		}
		if *seconds <= 0 {
			*seconds = runSeconds
		}
		os.Exit(driverRun(ctx, ws[0], *seed, time.Duration(*seconds)*time.Second, *traceMode == 1, outDir))
	case *traceMode != -1:
		fatal(fmt.Errorf("-trace takes 0 or 1"))

	case *cpuProfile != "" || *memProfile != "":
		if len(ws) != 1 {
			fatal(fmt.Errorf("profiling needs -workload"))
		}
		var extra []string
		for flagName, path := range map[string]string{"-cpuprofile": *cpuProfile, "-memprofile": *memProfile} {
			if path != "" {
				path = profilePath(path)
				fmt.Fprintf(os.Stderr, "%s: %s\n", flagName[1:], path)
				extra = append(extra, flagName, path)
			}
		}
		c, err := runPass(ctx, ws[0].Name, *seed, extra...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: host_s %.3f, setup_s %.3f, cpu_s %.3f; %d ops, %d failed\n",
			c.Workload, c.E2E["host_s"], c.E2E["setup_s"], c.E2E["cpu_s"], c.Ops, c.Failed)

	case *selfcheck:
		os.Exit(selfcheckRun(ctx, ws, *seed, *reps, outDir, *out))

	default:
		suites, err := runSuites(ctx, ws, *seed, *reps, outDir, 1)
		if err != nil {
			fatal(err)
		}
		s := suites[0]
		printSuite(s)
		if err := writeJSON(*out, s); err != nil {
			fatal(err)
		}
		if s.failed() > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func selectWorkloads(name string) ([]*workload, error) {
	if name == "" {
		ws := make([]*workload, len(workloadList))
		for i := range workloadList {
			ws[i] = &workloadList[i]
		}
		return ws, nil
	}
	w := findWorkload(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return []*workload{w}, nil
}

// outputDir is where span files go: benchmark/out, whether the command was
// started from the repository root or from the benchmark's own directory.
func outputDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func spanPath(outDir, workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".json")
}

// profilePath keeps profiles out of the repository unless the caller names
// an absolute place for them.
func profilePath(p string) string {
	if filepath.IsAbs(p) {
		return p
	}
	return filepath.Join(os.TempDir(), "mrapid-benchmark", p)
}

func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// childMain runs one pass in this process and prints its report.
func childMain(name string, seed int64, traced, flight bool, spanFile, cpuProfile, memProfile string) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	for _, path := range []string{spanFile, cpuProfile, memProfile} {
		if path != "" {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
		}
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	p := newPass(seed, traced, flight)
	w.run(p)
	r := p.result(w.Name)

	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err == nil {
			runtime.GC() // completes the allocation statistics
			err = pprof.Lookup("allocs").WriteTo(f, 0)
		}
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	if spanFile != "" {
		if err := p.writeSpans(spanFile, w.Name); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.Name, f)
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return 0 // failed ops are in the report; the parent decides
}

// driverRun is one run of the driver's contract: measure for about budget,
// check the outputs, and print one JSON object as the last line.
func driverRun(ctx context.Context, w *workload, seed int64, budget time.Duration, traced bool, outDir string) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	var r *workloadResult
	var err error
	if !traced {
		if r, err = measure(ctx, w, seed, 0, budget); err != nil {
			fatal(err)
		}
		for _, m := range e2eMetrics {
			metrics[m.Name] = value{r.E2E[m.Name].Median, m.Unit}
		}
	} else {
		// The traced pass needs an untraced base for the overhead figures;
		// two cold passes, then the traced one, then the probes.
		if r, err = measure(ctx, w, seed, 2, 0); err != nil {
			fatal(err)
		}
		if err = traceWorkload(ctx, w, r, spanPath(outDir, w.Name)); err != nil {
			fatal(err)
		}
		probes := runProbes()
		for _, emitted := range []map[string]float64{r.Layers, probes} {
			if err := checkEmitted(emitted, false); err != nil {
				fatal(err)
			}
		}
		for _, m := range layerMetrics {
			v, ok := probes[m.Name]
			if !ok {
				v = r.Layers[m.Name] // 0 when the workload does not exercise the layer
			}
			metrics[m.Name] = value{v, m.Unit}
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.Name, f)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		return 1
	}
	return 0
}

// printSuite prints every metric by name with its unit.
func printSuite(s *suiteResult) {
	fmt.Printf("machine: %d CPUs, %s, %s, %s; seed %d; %d cold passes per workload; %.0f s wall\n",
		s.Machine.CPUs, s.Machine.CPUModel, s.Machine.Go, s.Machine.OS, s.Seed, s.Reps, s.WallS)
	for _, r := range s.Workloads {
		fmt.Printf("\n%s  (%s)\n  ops %d, ops_failed %d\n", r.Workload, r.Size, r.Ops, r.OpsFailed)
		for _, f := range r.Failures {
			fmt.Printf("  FAILED %s\n", f)
		}
		fmt.Printf("  %-18s %-5s %14s %14s %14s %3s\n", "end to end", "unit", "median", "q1", "q3", "n")
		for _, m := range e2eMetrics {
			v := r.E2E[m.Name]
			fmt.Printf("  %-18s %-5s %14.6f %14.6f %14.6f %3d\n", m.Name, m.Unit, v.Median, v.Q1, v.Q3, v.N)
		}
		fmt.Printf("  per layer, traced pass\n")
		for _, m := range layerMetrics {
			if v, ok := r.Layers[m.Name]; ok && m.Kind != 4 {
				fmt.Printf("  %-36s %-9s %16.6f\n", m.Name, m.Unit, v)
			}
		}
		if res := r.Layers["sim.residual_s"]; res < 0 {
			fmt.Printf("  WARNING sim.residual_s is negative (%.3f s): the replay ran slower than the run it replays\n", res)
		}
	}
	fmt.Printf("\nprobes (one layer in isolation, fixed iterations)\n")
	names := make([]string, 0, len(s.Probes))
	for n := range s.Probes {
		names = append(names, n)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, m := range layerMetrics {
		units[m.Name] = m.Unit
	}
	for _, n := range names {
		fmt.Printf("  %-40s %-9s %16.4f\n", n, units[n], s.Probes[n])
	}
}

// selfcheckRun measures the suite twice on the same code and reports, per
// workload and metric, both medians and whether they agree within the
// metric's own bound.
func selfcheckRun(ctx context.Context, ws []*workload, seed int64, reps int, outDir, out string) int {
	runs, err := runSuites(ctx, ws, seed, reps, outDir, 2)
	if err != nil {
		fatal(err)
	}
	rows := compareSuites(runs[0], runs[1])
	outside, failed := 0, runs[0].failed()+runs[1].failed()
	fmt.Printf("%-16s %-30s %-6s %16s %16s  %s\n", "workload", "metric", "unit", "first", "second", "verdict")
	for _, c := range rows {
		note := ""
		if !c.Within {
			outside++
			note = "  OUTSIDE ITS BOUND"
		}
		fmt.Printf("%-16s %-30s %-6s %16.6f %16.6f  %s%s\n", c.Workload, c.Metric, c.Unit, c.First.Median, c.Second.Median, c.Verdict, note)
	}
	pass := outside == 0 && failed == 0
	fmt.Printf("\nselfcheck: %d comparisons, %d outside their bound, %d failed operations: pass=%v\n", len(rows), outside, failed, pass)
	err = writeJSON(out, struct {
		Machine     machine      `json:"machine"`
		Seed        int64        `json:"seed"`
		Reps        int          `json:"reps"`
		WallS       float64      `json:"wall_s"`
		Pass        bool         `json:"pass"`
		Outside     int          `json:"outside_bound"`
		Comparisons []comparison `json:"comparisons"`
	}{runs[0].Machine, seed, reps, runs[1].WallS, pass, outside, rows})
	if err != nil {
		fatal(err)
	}
	if !pass {
		return 1
	}
	return 0
}
