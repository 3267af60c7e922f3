package bench

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
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
