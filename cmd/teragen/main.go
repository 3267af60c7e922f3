// Command teragen writes the TeraSort input rows the simulated TeraGen
// stages (100-byte records, 10-byte random printable keys) to stdout or a
// local file, for inspecting exactly what it puts in HDFS.
//
// Usage:
//
//	teragen -rows 1000 > rows.dat
//	teragen -rows 100000 -seed 7 -o /tmp/terasort-input.dat
package main

import (
	"flag"
	"fmt"
	"os"

	"mrapid/internal/workloads"
)

func main() {
	var (
		rows = flag.Int64("rows", 1000, "number of 100-byte rows")
		seed = flag.Int64("seed", 1, "generator seed")
		out  = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()
	if err := run(*rows, *seed, *out); err != nil {
		fmt.Fprintf(os.Stderr, "teragen: %v\n", err)
		os.Exit(1)
	}
}

// run writes workloads.TeraGen's rows for one file of rows rows.
func run(rows, seed int64, out string) error {
	chunks, err := workloads.TeraRows(workloads.TeraGenConfig{Rows: rows, Files: 1, Seed: seed})
	if err != nil {
		return err
	}
	if out == "" {
		_, err = os.Stdout.Write(chunks[0])
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if _, err := f.Write(chunks[0]); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
