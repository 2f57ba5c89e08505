// Package cli holds the small parsing helpers shared by the command-line
// tools (topology and pattern names, trace loading); model names parse
// with core.ParseKind.
package cli

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"

	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ParseTopo parses "mesh<W>x<H>" or "cmesh<W>x<H>"; both dimensions must
// be at least 2. Only the canonical spelling (the topology's Name) is
// accepted, so one topology cannot appear under two names, e.g. in sweep
// run IDs.
func ParseTopo(name string) (topology.Topology, error) {
	kind, newGrid := "mesh", topology.NewMesh
	switch {
	case strings.HasPrefix(name, "cmesh"):
		kind, newGrid = "cmesh", topology.NewCMesh
	case !strings.HasPrefix(name, "mesh"):
		return nil, fmt.Errorf("cli: unknown topology %q", name)
	}
	var w, h int
	_, err := fmt.Sscanf(name, kind+"%dx%d", &w, &h)
	if err != nil || w < 2 || h < 2 || fmt.Sprintf(kind+"%dx%d", w, h) != name {
		return nil, fmt.Errorf("cli: bad topology %q", name)
	}
	return newGrid(w, h), nil
}

// ParseShards validates a -shards flag value: 0 selects the engine's
// automatic default (min(GOMAXPROCS, NumCPU, mesh router rows) — so a
// single-CPU host runs the serial sweep unless a count >1 is passed
// explicitly), positive values request that many row-aligned tick-engine
// shards (clamped to the row count by the engine), and negatives are
// rejected. Results are bit-identical for every accepted value.
func ParseShards(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("cli: -shards must be >= 0, got %d", n)
	}
	return n, nil
}

// ParsePattern parses a synthetic-pattern name.
func ParsePattern(name string) (traffic.Pattern, error) {
	switch strings.ToLower(name) {
	case "uniform", "random":
		return traffic.UniformRandom, nil
	case "transpose":
		return traffic.Transpose, nil
	case "bitcomp", "bitcomplement":
		return traffic.BitComplement, nil
	case "hotspot":
		return traffic.Hotspot, nil
	case "neighbor":
		return traffic.Neighbor, nil
	}
	return 0, fmt.Errorf("cli: unknown pattern %q", name)
}

// StartProfiles begins CPU profiling, a Go execution trace
// (runtime/trace — scheduler/GC/goroutine timelines, the view that shows
// the sharded engine's worker goroutines and barriers; go tool trace
// reads it), and arranges a heap snapshot, driven by the shared
// -cpuprofile/-runtimetrace/-memprofile flags. Any path may be empty. It
// returns a stop function for the caller to defer; stop finishes the CPU
// profile and execution trace and writes the heap profile (after a GC,
// so it reflects live objects rather than collection timing). Stop
// returns the first flush/close error — a full disk truncates a profile
// at close time, and that must fail the command, not vanish.
func StartProfiles(cpuPath, runtimeTracePath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cli: create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cli: start cpu profile: %w", err)
		}
	}
	var traceFile *os.File
	if runtimeTracePath != "" {
		traceFile, err = os.Create(runtimeTracePath)
		if err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, fmt.Errorf("cli: create runtime trace: %w", err)
		}
		if err := trace.Start(traceFile); err != nil {
			traceFile.Close()
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, fmt.Errorf("cli: start runtime trace: %w", err)
		}
	}
	return func() error {
		var firstErr error
		keep := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				keep(fmt.Errorf("cli: close cpu profile: %w", err))
			}
		}
		if traceFile != nil {
			trace.Stop()
			if err := traceFile.Close(); err != nil {
				keep(fmt.Errorf("cli: close runtime trace: %w", err))
			}
		}
		if memPath != "" {
			keep(WriteFile(memPath, func(w io.Writer) error {
				runtime.GC()
				return pprof.WriteHeapProfile(w)
			}))
		}
		return firstErr
	}, nil
}

// StartObs wires the observability flags shared by the commands: it
// starts the live expvar/pprof endpoint when addr is non-empty
// (-obs-addr) and opens a Perfetto-loadable engine-phase trace when
// tracePath is non-empty (-trace-out). traceWindow > 0 (-trace-window)
// selects the tracer's time-window retention mode: the file keeps only
// events from the trailing traceWindow base ticks at each flush, which
// is what makes always-on tracing viable for long-running processes
// (the cosim daemon); 0 streams everything. It returns the Observer
// to attach to runs — nil when both flags are off, which disables the
// layer entirely — and a close function for the caller to defer; close
// flushes the phase trace and shuts the endpoint down, returning the
// first error — an unreported flush failure would leave a silently
// truncated trace file behind an exit code of 0.
func StartObs(addr, tracePath string, traceWindow int64) (*obs.Observer, func() error, error) {
	var (
		srv    *obs.Server
		tf     *os.File
		tracer *obs.Tracer
	)
	if addr != "" {
		var err error
		srv, err = obs.StartServer(addr)
		if err != nil {
			return nil, nil, fmt.Errorf("cli: obs endpoint: %w", err)
		}
		fmt.Fprintf(os.Stderr, "observability endpoint on http://%s/debug/vars\n", srv.Addr())
	}
	if tracePath != "" {
		var err error
		tf, err = os.Create(tracePath)
		if err != nil {
			if srv != nil {
				srv.Close()
			}
			return nil, nil, fmt.Errorf("cli: create phase trace: %w", err)
		}
		tracer = obs.NewTracer(tf, traceWindow)
	}
	closeFn := func() error {
		var firstErr error
		keep := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if tracer != nil {
			if err := tracer.Flush(); err != nil {
				keep(fmt.Errorf("cli: phase trace: %w", err))
			}
			if err := tf.Close(); err != nil {
				keep(fmt.Errorf("cli: close phase trace: %w", err))
			}
		}
		if srv != nil {
			keep(srv.Close())
		}
		return firstErr
	}
	if srv == nil && tracer == nil {
		return nil, closeFn, nil
	}
	return &obs.Observer{Metrics: obs.NewMetrics(), Tracer: tracer}, closeFn, nil
}

// WriteFile creates path, streams write into it, and closes the file,
// returning the first error — including the Close error, which is where
// a full disk or quota breach finally surfaces for buffered filesystem
// writes. Every output path in the commands funnels through it (or an
// equivalent explicit Close check) so a truncated file can never hide
// behind exit code 0.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("cli: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("cli: close %s: %w", path, err)
	}
	return nil
}

// LoadTrace reads a binary trace file written by cmd/tracegen.
func LoadTrace(path string) (*traffic.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cli: open trace: %w", err)
	}
	defer f.Close()
	return traffic.ReadBinary(f)
}
