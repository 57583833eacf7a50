package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// ProfileFlags holds the parsed values of the shared pprof flags. Every
// command (pipesim, autopipe, experiments, autopiped) accepts the same
// -cpuprofile/-memprofile pair, so a hotspot found by a benchmark can be
// profiled in the exact CLI workload that exhibits it.
type ProfileFlags struct {
	// CPUPath receives a runtime/pprof CPU profile covering everything between
	// Start and the returned stop function; empty disables capture.
	CPUPath string
	// MemPath receives a heap profile taken at stop time (after a forced GC,
	// so it reflects live objects, not garbage); empty disables capture.
	MemPath string
}

// RegisterProfile installs the shared pprof flags on fs (before fs.Parse).
func RegisterProfile(fs *flag.FlagSet) *ProfileFlags {
	pf := &ProfileFlags{}
	fs.StringVar(&pf.CPUPath, "cpuprofile", "", "write a CPU profile to this file (view with `go tool pprof`)")
	fs.StringVar(&pf.MemPath, "memprofile", "", "write a heap profile to this file at exit (view with `go tool pprof`)")
	return pf
}

// Start begins capture per the flags and returns a stop function that
// finalizes both profiles. Call stop exactly once on every path out of the
// workload (defer works); with both flags empty, Start and stop are no-ops.
func (pf *ProfileFlags) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if pf.CPUPath != "" {
		cpuFile, err = os.Create(pf.CPUPath)
		if err != nil {
			return nil, fmt.Errorf("cliutil: create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cliutil: start cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cliutil: close cpu profile: %w", err)
			}
		}
		if pf.MemPath != "" {
			f, err := os.Create(pf.MemPath)
			if err != nil {
				return fmt.Errorf("cliutil: create heap profile: %w", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("cliutil: write heap profile: %w", err)
			}
		}
		return nil
	}, nil
}
