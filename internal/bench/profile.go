package bench

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"mrapid/internal/mapreduce"
)

// Profiles is the pair of host-profile flags both CLIs take, declared here
// once: -cpuprofile samples the whole run, -memprofile writes the allocation
// profile at its end (go tool pprof -sample_index=alloc_space for what a run
// allocated, inuse_space for what it still held).
type Profiles struct {
	cpu, mem *string
}

// ProfileFlags declares -cpuprofile and -memprofile on the command line's
// flag set; call it before flag.Parse.
func ProfileFlags() *Profiles {
	return &Profiles{
		cpu: flag.String("cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)"),
		mem: flag.String("memprofile", "", "write the host allocation profile to this file when the run ends"),
	}
}

// Start begins CPU profiling if asked to and returns the function that ends
// the profiles and writes them out; call that before the process exits.
func (p *Profiles) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if *p.cpu != "" {
		if cpuFile, err = os.Create(*p.cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if *p.mem == "" {
			return nil
		}
		f, err := os.Create(*p.mem)
		if err != nil {
			return err
		}
		runtime.GC() // settle the in-use numbers
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("memory profile: %w", err)
		}
		return f.Close()
	}, nil
}

// RunFlags declares the run flags both CLIs take — -seed -node-fail
// -shuffle-service -shuffle-codec -memo -series-out — on the command
// line's flag set; call it before flag.Parse. The returned function reads
// the parsed flags into Options: the flight recorder is on exactly when
// -series-out asks for it, and a malformed -node-fail schedule is the
// error.
func RunFlags() func() (Options, error) {
	var (
		seed      = flag.Int64("seed", 1, "input synthesis / placement seed")
		nodeFail  = flag.String("node-fail", "", "node-fault schedule 'node@at[:restartAfter]', comma-separated (e.g. 'node-02@5s:20s'), injected into every simulation; times measured from cluster-ready")
		shuffle   = flag.Bool("shuffle-service", false, "attach the per-node consolidating shuffle service (one fetch per node & partition, in-node combine)")
		codec     = flag.String("shuffle-codec", "none", "shuffle-service wire codec: none | lz")
		memo      = flag.Bool("memo", false, "attach the cross-job memoization cache: repeat submissions of an identical job over unchanged inputs are served from the cache without launching anything")
		seriesOut = flag.String("series-out", "", "enable the flight recorder and write its Prometheus series dump here")
	)
	return func() (Options, error) {
		faults, err := mapreduce.ParseNodeFaults(*nodeFail)
		if err != nil {
			return Options{}, err
		}
		return Options{
			Seed: *seed, NodeFaults: faults,
			ShuffleService: *shuffle, ShuffleCodec: *codec, MemoCache: *memo,
			SeriesOut: *seriesOut, FlightRecorder: *seriesOut != "",
		}, nil
	}
}
