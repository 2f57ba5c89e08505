// Command dozznocd runs the simulator as a long-running co-simulation
// daemon: a NoC timing/energy oracle that external simulators drive
// over the versioned JSONL protocol in internal/cosim (open-session,
// transfer, advance, query, close-session).
//
// Usage:
//
//	dozznocd                          # serve the protocol on stdio
//	dozznocd -listen localhost:9797   # serve TCP connections
//
// Each connection gets its own session namespace; sessions are
// persistent mesh + policy-model engine instances multiplexed over a
// bounded worker pool. When the pool is saturated the daemon answers
// advance requests with an explicit busy/retry-after frame instead of
// queueing. -obs-addr serves live expvar (including the per-session
// "dozznoc.cosim" branch) and pprof; -trace-out with -trace-window
// keeps a bounded always-on engine-phase trace in stdio mode.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cli"
	"repro/internal/cosim"
)

func main() {
	var (
		listen      = flag.String("listen", "", "serve the cosim protocol on this TCP address (e.g. localhost:9797); empty = stdio")
		workers     = flag.Int("workers", 0, "sessions allowed to advance simulated time concurrently (0 = GOMAXPROCS)")
		maxSessions = flag.Int("max-sessions", 0, "max open sessions per connection (0 = default 16)")
		retryMS     = flag.Int64("retry-after-ms", 0, "retry hint attached to busy replies (0 = default 5)")
		obsAddr     = flag.String("obs-addr", "", "serve live expvar/pprof observability on this address (e.g. localhost:6060)")
		traceOut    = flag.String("trace-out", "", "write engine-phase spans as a Perfetto/chrome://tracing JSONL file (stdio mode only)")
		traceWin    = flag.Int64("trace-window", 0, "keep only the trailing N base ticks of the phase trace (0 = everything)")
	)
	flag.Parse()

	if *listen != "" && *traceOut != "" {
		fatal(fmt.Errorf("-trace-out requires stdio mode: the phase tracer is single-goroutine, " +
			"and only a single stdio connection serializes all session work onto one"))
	}
	observer, closeObs, err := cli.StartObs(*obsAddr, *traceOut, *traceWin)
	if err != nil {
		fatal(err)
	}

	opts := cosim.Options{
		Workers:            *workers,
		MaxSessionsPerConn: *maxSessions,
		RetryAfterMS:       *retryMS,
	}
	if *listen == "" {
		opts.Observer = observer
	}
	d := cosim.NewDaemon(opts)

	// SIGINT/SIGTERM drain the daemon: live connections close, remaining
	// sessions are finalized (tracer flushed), and Serve/ServeConn return.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "dozznocd: draining")
		d.Close()
	}()

	if *listen == "" {
		err = d.ServeConn(os.Stdin, os.Stdout)
	} else {
		var ln net.Listener
		ln, err = net.Listen("tcp", *listen)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dozznocd: serving cosim protocol v%d on %s\n", cosim.Version, ln.Addr())
		err = d.Serve(ln)
	}
	d.Close()
	// The daemon has finalized every session into the tracer by now;
	// flush it and surface close errors — a truncated always-on phase
	// trace must not hide behind a clean daemon shutdown.
	if cerr := closeObs(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dozznocd:", err)
	os.Exit(1)
}
