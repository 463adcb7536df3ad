// Package hostprof implements the commands' -cpuprofile and -memprofile
// flags: a CPU profile and an allocation profile of the simulator on the
// host, for a whole run, in the format `go tool pprof` reads. They
// measure where host time and memory go; where simulated cycles go is
// package tmprof's question.
package hostprof

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start creates the profile files and starts the CPU profile. An empty
// path skips that profile. Both files are created before anything runs,
// so a bad path fails the command at once. The returned stop ends the
// CPU profile and writes the allocation profile; call it once, when the
// run is over.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return nil, err
		}
	}
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
				err = fmt.Errorf("starting CPU profile: %w", err)
			}
		}
		if err != nil {
			if mem != nil {
				mem.Close()
				os.Remove(memPath)
			}
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if mem != nil {
			runtime.GC() // bring the profile's statistics up to date
			if err := pprof.Lookup("allocs").WriteTo(mem, 0); err != nil {
				errs = append(errs, fmt.Errorf("writing %s: %w", memPath, err))
			}
			errs = append(errs, mem.Close())
		}
		return errors.Join(errs...)
	}, nil
}
