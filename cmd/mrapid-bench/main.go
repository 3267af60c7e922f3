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
// Experiments run concurrently, one per core (GOMAXPROCS); the tables print
// in registry order.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"mrapid/internal/bench"
)

func main() {
	var (
		run      = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		scale    = flag.Float64("scale", 1.0, "input-size scale factor (1.0 = paper sizes)")
		jsonOut  = flag.String("json", "", "also write the regenerated figures as a JSON array to this path (CI artifact)")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		runOpts  = bench.RunFlags()
		profiles = bench.ProfileFlags()
	)
	flag.Parse()

	if *list {
		for _, r := range bench.Registry {
			fmt.Printf("%-8s %s\n", r.ID, r.Short)
		}
		return
	}

	selected := map[string]bool{}
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			if _, ok := bench.Lookup(id); !ok {
				fmt.Fprintf(os.Stderr, "mrapid-bench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected[id] = true
		}
	}

	opts, err := runOpts()
	if err == nil {
		codecSet := false
		flag.Visit(func(f *flag.Flag) { codecSet = codecSet || f.Name == "shuffle-codec" })
		err = checkFlags(*scale, codecSet, opts.ShuffleService)
	}
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
// to GOMAXPROCS goroutines, in registry order, and returns one channel per
// experiment, in that order, that receives its outcome. Experiments share
// only the process-wide input and map-output caches, which are safe for
// concurrent use; GOMAXPROCS=1 runs them one after another.
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
		next <- i
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

// checkFlags names a flag the run cannot honour: a -scale that is not
// positive (the figures would silently run at paper scale) or a
// -shuffle-codec set without the -shuffle-service it configures.
func checkFlags(scale float64, codecSet, shuffleService bool) error {
	if scale <= 0 {
		return fmt.Errorf("-scale %g is not positive", scale)
	}
	if codecSet && !shuffleService {
		return errors.New("-shuffle-codec has no effect without -shuffle-service")
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
