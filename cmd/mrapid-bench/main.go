// Command mrapid-bench regenerates the paper's evaluation tables and
// figures on the simulated cluster and prints them as text tables.
//
// Usage:
//
//	mrapid-bench                  # run every experiment at full scale
//	mrapid-bench -run fig7,fig14  # run selected experiments
//	mrapid-bench -scale 0.2       # shrink the inputs (faster, same code paths)
//	mrapid-bench -list            # list experiment IDs
//
// Experiments run concurrently, one per core (GOMAXPROCS), the heaviest
// first; the tables print in registry order.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"mrapid/internal/bench"
)

// The command's flags. checkArgs reads -run, -scale and the shared run
// flags by name from the set it checks.
var (
	_        = flag.String("run", "", "comma-separated experiment IDs (default: all)")
	scale    = flag.Float64("scale", 1.0, "input-size scale factor (1.0 = paper sizes)")
	jsonOut  = flag.String("json", "", "also write the regenerated figures as a JSON array to this path (CI artifact)")
	list     = flag.Bool("list", false, "list experiment IDs and exit")
	runOpts  = bench.RunFlags()
	profiles = bench.ProfileFlags()
)

func main() {
	flag.Parse()

	if *list {
		for _, r := range bench.Registry {
			fmt.Printf("%-8s %s\n", r.ID, r.Short)
		}
		return
	}

	selected, err := checkArgs(flag.CommandLine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrapid-bench: %v\n", err)
		os.Exit(2)
	}
	opts, err := runOpts()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrapid-bench: %v\n", err)
		os.Exit(2)
	}
	opts.Scale = *scale
	stopProfiles, err := profiles.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrapid-bench: %v\n", err)
		os.Exit(1)
	}
	failures := 0
	var figures []*bench.Figure
	for _, c := range runAll(selected, opts) {
		r := <-c
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "mrapid-bench: %s failed: %v\n", r.id, r.err)
			failures++
			continue
		}
		if err := bench.Render(os.Stdout, r.fig); err != nil {
			fmt.Fprintf(os.Stderr, "mrapid-bench: rendering %s: %v\n", r.id, err)
			failures++
			continue
		}
		figures = append(figures, r.fig)
		fmt.Printf("(%s regenerated in %.1fs wall time)\n\n", r.id, r.wall.Seconds())
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, figures); err != nil {
			fmt.Fprintf(os.Stderr, "mrapid-bench: %v\n", err)
			failures++
		} else {
			fmt.Printf("figures written to %s\n", *jsonOut)
		}
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "mrapid-bench: %v\n", err)
		failures++
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// outcome is one experiment's run: its figure or error and its own wall
// time.
type outcome struct {
	id   string
	fig  *bench.Figure
	err  error
	wall time.Duration
}

// runAll starts the selected experiments (all when none is selected) on up
// to GOMAXPROCS goroutines, the heaviest first (bench.ByCost), and returns
// one channel per experiment, in registry order, that receives its outcome.
// Experiments share only the process-wide input and map-output caches,
// which are safe for concurrent use; GOMAXPROCS=1 runs them one after
// another.
func runAll(selected map[string]bool, opts bench.Options) []chan outcome {
	var ids []string
	var runs []bench.Runner
	for _, r := range bench.Registry {
		if len(selected) == 0 || selected[r.ID] {
			ids, runs = append(ids, r.ID), append(runs, r.Run)
		}
	}
	done := make([]chan outcome, len(runs))
	next := make(chan int, len(runs))
	for i := range runs {
		done[i] = make(chan outcome, 1)
	}
	for _, id := range bench.ByCost {
		if i := slices.Index(ids, id); i >= 0 {
			next <- i
		}
	}
	close(next)
	for range min(runtime.GOMAXPROCS(0), len(runs)) {
		go func() {
			for i := range next {
				start := time.Now()
				fig, err := runs[i](opts)
				done[i] <- outcome{ids[i], fig, err, time.Since(start)}
			}
		}()
	}
	return done
}

// checkArgs reads the experiments fs's -run selects (none: all of them)
// and names a flag the run cannot honour (checkFlags).
func checkArgs(fs *flag.FlagSet) (map[string]bool, error) {
	value := func(name string) string { return fs.Lookup(name).Value.String() }
	selected := map[string]bool{}
	if ids := value("run"); ids != "" {
		for _, id := range strings.Split(ids, ",") {
			id = strings.TrimSpace(id)
			if _, ok := bench.Lookup(id); !ok {
				return nil, fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			selected[id] = true
		}
	}
	scale, err := strconv.ParseFloat(value("scale"), 64)
	if err != nil {
		return nil, err
	}
	codecSet := false
	fs.Visit(func(f *flag.Flag) { codecSet = codecSet || f.Name == "shuffle-codec" })
	opts := bench.Options{ShuffleService: value("shuffle-service") == "true", SeriesOut: value("series-out")}
	return selected, checkFlags(scale, codecSet, len(selected) == 0 || selected["throughput"], opts)
}

// checkFlags names a flag the run cannot honour: a -scale that is not
// positive (the figures would silently run at paper scale), a
// -shuffle-codec set without the -shuffle-service it configures, or a
// -series-out when the selected experiments do not include throughput, the
// only one that writes the series dump.
func checkFlags(scale float64, codecSet, throughput bool, opts bench.Options) error {
	if scale <= 0 {
		return fmt.Errorf("-scale %g is not positive", scale)
	}
	if codecSet && !opts.ShuffleService {
		return errors.New("-shuffle-codec has no effect without -shuffle-service")
	}
	if !throughput && opts.SeriesOut != "" {
		return errors.New("-series-out has no effect unless -run includes throughput")
	}
	return nil
}

// writeJSON stores the regenerated figures as an indented JSON array, the
// machine-readable artifact the CI run uploads.
func writeJSON(path string, figures []*bench.Figure) error {
	data, err := json.MarshalIndent(figures, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding figures: %w", err)
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
