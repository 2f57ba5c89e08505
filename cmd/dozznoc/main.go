// Command dozznoc runs one power-management model over one benchmark trace
// and prints the run summary.
//
// Usage:
//
//	dozznoc -topo mesh8x8 -model dozznoc -bench fft -compress 1
//
// ML models (lead, dozznoc, turbo) are trained on the fly via the offline
// pipeline (reactive data harvest on the 6 training benchmarks, lambda
// tuning on the 3 validation benchmarks) unless -weightsdir points at a
// directory of weights files written by cmd/train.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func main() {
	var (
		topoName   = flag.String("topo", "mesh8x8", "topology: mesh8x8, cmesh4x4 or mesh<W>x<H>")
		model      = flag.String("model", "dozznoc", "model: baseline, pg, lead, dozznoc, turbo")
		bench      = flag.String("bench", "fft", "benchmark name (see -list)")
		compress   = flag.Int64("compress", 1, "trace time-compression factor (1 = uncompressed)")
		horizon    = flag.Int64("horizon", 120_000, "trace generation window in base ticks")
		epoch      = flag.Int64("epoch", 500, "DVFS epoch length in base ticks")
		seed       = flag.Int64("seed", 1, "trace generator seed")
		weightsDir = flag.String("weightsdir", "", "directory of cmd/train outputs to load (skips training)")
		traceIn    = flag.String("trace", "", "optional binary trace file (overrides -bench)")
		pattern    = flag.String("pattern", "", "optional synthetic pattern (overrides -bench): uniform, transpose, bitcomp, hotspot, neighbor")
		rate       = flag.Float64("rate", 0.01, "injection rate for -pattern (packets/core/tick)")
		series     = flag.String("series", "", "write a per-epoch time-series CSV to this file")
		list       = flag.Bool("list", false, "list benchmarks and exit")
		shards     = flag.Int("shards", 0, "tick-engine shards (0 = min(GOMAXPROCS, CPUs, mesh rows) — serial on a single-CPU host, pass a count >1 to force sharding there; 1 = serial sweep; results are bit-identical)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		rtTrace    = flag.String("runtimetrace", "", "write a Go execution trace (go tool trace) to this file")
		obsAddr    = flag.String("obs-addr", "", "serve live expvar/pprof observability on this address (e.g. localhost:6060)")
		traceOut   = flag.String("trace-out", "", "write engine-phase spans as a Perfetto/chrome://tracing JSONL file")
		traceWin   = flag.Int64("trace-window", 0, "keep only the trailing N base ticks of the phase trace (0 = everything)")
	)
	flag.Parse()

	// Profiles flush on normal exit only; fatal() paths abort before the
	// expensive simulation, where a partial profile has no value. The
	// flush/close errors themselves are fatal: a full disk at close time
	// truncates the profile or phase trace, and exiting 0 would hide it.
	stopProfiles, err := cli.StartProfiles(*cpuProfile, *rtTrace, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fatal(err)
		}
	}()

	observer, closeObs, err := cli.StartObs(*obsAddr, *traceOut, *traceWin)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := closeObs(); err != nil {
			fatal(err)
		}
	}()

	if *list {
		for _, p := range traffic.Profiles() {
			fmt.Printf("%-14s %-8s %s\n", p.Name, p.Suite, p.Split)
		}
		return
	}

	topo, err := cli.ParseTopo(*topoName)
	if err != nil {
		fatal(err)
	}
	kind, err := cli.ParseKind(*model)
	if err != nil {
		fatal(err)
	}

	nShards, err := cli.ParseShards(*shards)
	if err != nil {
		fatal(err)
	}
	suite := core.NewSuite(topo, core.Options{Horizon: *horizon, EpochTicks: *epoch, Seed: *seed, Shards: nShards})
	if *weightsDir != "" {
		n, err := suite.LoadTrainedModels(*weightsDir)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %d trained models from %s\n", n, *weightsDir)
	}
	if kind.IsML() && suite.TrainedModel(kind) == nil {
		fmt.Fprintln(os.Stderr, "training", kind, "(use -weightsdir to skip)...")
		if _, err := suite.Train(kind); err != nil {
			fatal(err)
		}
	}

	var tr *traffic.Trace
	switch {
	case *traceIn != "":
		tr, err = cli.LoadTrace(*traceIn)
		if err != nil {
			fatal(err)
		}
	case *pattern != "":
		pat, err := cli.ParsePattern(*pattern)
		if err != nil {
			fatal(err)
		}
		tr = traffic.Synthetic(topo, pat, *rate, *horizon, *seed)
	default:
		tr, err = suite.Trace(*bench)
		if err != nil {
			fatal(err)
		}
	}
	if *compress > 1 {
		tr = tr.Compress(*compress)
	}
	spec, err := suite.Spec(kind)
	if err != nil {
		fatal(err)
	}
	cfg := suite.Config(spec, tr)
	cfg.CollectSeries = *series != ""
	cfg.Obs = observer
	res, err := sim.Run(cfg)
	if err != nil {
		fatal(err)
	}
	if *series != "" {
		f, err := os.Create(*series)
		if err != nil {
			fatal(err)
		}
		if err := res.Series.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote per-epoch series to %s (%d epochs)\n", *series, len(res.Series.Samples))
	}

	fmt.Printf("model            %s\n", res.Model)
	fmt.Printf("trace            %s\n", res.Trace)
	fmt.Printf("ticks            %d (drained=%v)\n", res.Ticks, res.Drained)
	fmt.Printf("packets          injected=%d delivered=%d\n", res.PacketsInjected, res.PacketsDelivered)
	fmt.Printf("throughput       %.4f flits/tick\n", res.Throughput)
	fmt.Printf("avg latency      %.1f ticks (%.1f ns)\n", res.AvgLatencyTicks, res.AvgLatencyNS)
	fmt.Printf("latency p50/95/99 %d/%d/%d ticks (max %d)\n",
		res.Latency.P50, res.Latency.P95, res.Latency.P99, res.Latency.Max)
	fmt.Printf("EDP              %.3e J*s\n", res.EDP())
	fmt.Printf("static energy    %.3e J\n", res.StaticJ)
	fmt.Printf("dynamic energy   %.3e J\n", res.DynamicJ)
	fmt.Printf("off fraction     %.3f (wakeup %.3f)\n", res.OffFraction, res.WakeupFraction)
	for i := 0; i < power.NumActiveModes; i++ {
		fmt.Printf("residency %v     %.3f\n", power.ActiveMode(i), res.ModeResidency[i])
	}
	fmt.Printf("gatings          %d (wakes %d, breakeven met %d)\n",
		res.Policy.Gatings, res.Policy.Wakes, res.Policy.BreakevenMet)
	fmt.Printf("mode switches    %d over %d epoch decisions\n",
		res.Policy.ModeSwitches, res.Policy.EpochDecisions)
	if observer != nil && observer.Metrics != nil {
		fmt.Printf("pred error       %.5f mean abs IBU (drift events %d)\n",
			res.MeanAbsPredErr, res.PredDriftEvents)
		fmt.Printf("mispredict cost  under=%d (stall %d ticks) over=%d (static waste %.3e J)\n",
			res.UnderPredDecisions, res.UnderPredStallTicks,
			res.OverPredDecisions, res.OverPredStaticWasteJ)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dozznoc:", err)
	os.Exit(1)
}
