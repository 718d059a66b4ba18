// Package profiling writes the stock profiles of a command's run, named
// by its -cpuprofile, -memprofile and -trace flags.
package profiling

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Profiles is one run's set of profiles.
type Profiles struct {
	cpuPath, memPath, tracePath *string
	cpu, trace                  *os.File
}

// Flags defines -cpuprofile, -memprofile and -trace on the command-line
// flag set.
func Flags() *Profiles {
	return &Profiles{
		cpuPath:   flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file"),
		memPath:   flag.String("memprofile", "", "write a pprof heap profile at the end of the run to this file"),
		tracePath: flag.String("trace", "", "write a runtime/trace of the run to this file (inspect with go tool trace)"),
	}
}

// Start starts the CPU profile and the execution trace whose flags are
// set. On failure it stops what it started.
func (p *Profiles) Start() error {
	var err error
	if *p.cpuPath != "" {
		if p.cpu, err = create(*p.cpuPath, pprof.StartCPUProfile); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if *p.tracePath != "" {
		if p.trace, err = create(*p.tracePath, trace.Start); err != nil {
			return errors.Join(fmt.Errorf("-trace: %w", err), p.stopCPU())
		}
	}
	return nil
}

// Exit ends the CPU profile and the trace and writes the heap profile,
// after a GC so that it shows live memory rather than garbage, then
// exits with code, or with 1 when a profile could not be written.
// os.Exit skips deferred calls, so once Start has succeeded every exit of
// the command goes through here.
func (p *Profiles) Exit(code int) {
	err := p.stopCPU()
	if p.trace != nil {
		trace.Stop()
		err = errors.Join(err, wrap("-trace", p.trace.Close()))
	}
	if *p.memPath != "" {
		err = errors.Join(err, wrap("-memprofile", writeHeap(*p.memPath)))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
		code = 1
	}
	os.Exit(code)
}

func (p *Profiles) stopCPU() error {
	if p.cpu == nil {
		return nil
	}
	pprof.StopCPUProfile()
	return wrap("-cpuprofile", p.cpu.Close())
}

// create creates the file at path and starts writing a profile into it.
func create(path string, start func(io.Writer) error) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := start(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wrap names the flag whose output failed.
func wrap(flagName string, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	return nil
}
