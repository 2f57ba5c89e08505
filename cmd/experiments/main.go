// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints them in order. Select a subset with -only
// (comma-separated ids: table1,table2,table3,table5,overhead,fig5,fig6,
// table5derived,fig7,fig8,fig9,headline,epochs,tidle,punch,featcount,
// feat41,closedloop,globaldvfs).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/mcsim"
	"repro/internal/topology"
)

// runConfig mirrors the command-line flags so the whole command is
// callable in-process (the golden-output regression test drives it with
// a reduced configuration).
type runConfig struct {
	only     string
	horizon  int64
	compress int64
	seed     int64
	cmesh    bool
	csvDir   string
	shards   int // per-simulation tick-engine shards (0 = auto)
	meshW    int // mesh dimensions (default 8x8)
	meshH    int
	obsAddr  string // live expvar/pprof endpoint address ("" = off)
	traceOut string // engine-phase Perfetto trace path ("" = off)
	traceWin int64  // phase-trace retention window in base ticks (0 = everything)

	// configureSuite, when non-nil, is applied to every suite the run
	// builds before any simulation (tests install passthrough ML models
	// here to skip training).
	configureSuite func(*core.Suite)
}

func main() {
	var rc runConfig
	var cpuProfile, memProfile, rtTrace string
	flag.StringVar(&rc.only, "only", "", "comma-separated experiment ids (default: all)")
	flag.Int64Var(&rc.horizon, "horizon", 120_000, "trace generation window in base ticks")
	flag.Int64Var(&rc.compress, "compress", exp.DefaultCompression, "compression factor for compressed-trace experiments")
	flag.Int64Var(&rc.seed, "seed", 1, "trace generator seed")
	flag.BoolVar(&rc.cmesh, "cmesh", true, "include the 4x4 cmesh headline row")
	flag.StringVar(&rc.csvDir, "csv", "", "also write machine-readable CSVs for fig7/fig8/fig9/headline into this directory")
	flag.IntVar(&rc.shards, "shards", 0, "per-simulation tick-engine shards (0 = min(GOMAXPROCS, CPUs, mesh rows) — serial on a single-CPU host, pass a count >1 to force sharding there; 1 = serial sweep; results are bit-identical)")
	flag.StringVar(&cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&memProfile, "memprofile", "", "write a heap profile to this file on exit")
	flag.StringVar(&rtTrace, "runtimetrace", "", "write a Go execution trace (go tool trace) to this file")
	flag.StringVar(&rc.obsAddr, "obs-addr", "", "serve live expvar/pprof observability on this address (e.g. localhost:6060)")
	flag.StringVar(&rc.traceOut, "trace-out", "", "write engine-phase spans as a Perfetto/chrome://tracing JSONL file")
	flag.Int64Var(&rc.traceWin, "trace-window", 0, "keep only the trailing N base ticks of the phase trace (0 = everything)")
	flag.Parse()

	stopProfiles, err := cli.StartProfiles(cpuProfile, rtTrace, memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	runErr := run(os.Stdout, os.Stderr, rc)
	if err := stopProfiles(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", runErr)
		os.Exit(1)
	}
}

func run(out, errOut io.Writer, rc runConfig) (retErr error) {
	if _, err := cli.ParseShards(rc.shards); err != nil {
		return err
	}
	if rc.meshW == 0 {
		rc.meshW = 8
	}
	if rc.meshH == 0 {
		rc.meshH = 8
	}
	want := map[string]bool{}
	for _, id := range strings.Split(rc.only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	sel := func(id string) bool { return len(want) == 0 || want[id] }

	section := func(id string) {
		fmt.Fprintf(out, "\n==== %s ====\n", id)
	}

	if sel("table1") {
		section("table1")
		exp.TableI().Write(out)
	}
	if sel("table2") {
		section("table2")
		exp.TableII().Write(out)
	}
	if sel("table3") {
		section("table3")
		exp.TableIII().Write(out)
	}
	if sel("table5") {
		section("table5")
		exp.TableV().Write(out)
	}
	if sel("table5derived") {
		section("table5derived")
		exp.TableVDerived().Write(out)
	}
	if sel("overhead") {
		section("overhead")
		exp.OverheadTable().Write(out)
	}
	if sel("fig5") {
		section("fig5")
		exp.Fig5(10, 0.5, 40).Write(out)
	}
	if sel("fig6") {
		section("fig6")
		exp.Fig6().Write(out)
	}

	needSim := sel("fig7") || sel("fig8") || sel("fig9") || sel("headline") ||
		sel("epochs") || sel("tidle") || sel("punch") || sel("featcount") ||
		sel("feat41") || sel("closedloop") || sel("globaldvfs")
	if !needSim {
		return nil
	}

	// The observer rides along on every simulation the suites run, which
	// then run one at a time (core.Options.Obs); the live endpoint shows
	// whichever simulation folded an epoch last.
	observer, closeObs, err := cli.StartObs(rc.obsAddr, rc.traceOut, rc.traceWin)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeObs(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()

	opts := core.Options{Horizon: rc.horizon, Seed: rc.seed, Shards: rc.shards, Obs: observer}
	newSuite := func(topo topology.Topology, o core.Options) *core.Suite {
		s := core.NewSuite(topo, o)
		if rc.configureSuite != nil {
			rc.configureSuite(s)
		}
		return s
	}
	suite := newSuite(topology.NewMesh(rc.meshW, rc.meshH), opts)
	if sel("fig7") || sel("fig8") || sel("headline") {
		start := time.Now()
		fmt.Fprintf(errOut, "training ML models on the %dx%d mesh...\n", rc.meshW, rc.meshH)
		if err := suite.TrainAll(); err != nil {
			return err
		}
		fmt.Fprintf(errOut, "training done in %v\n", time.Since(start).Round(time.Millisecond))
	}

	if sel("fig7") {
		section("fig7")
		r, err := exp.Fig7(suite)
		if err != nil {
			return err
		}
		r.Write(out)
		if err := writeCSVFile(errOut, rc.csvDir, "fig7.csv", r.WriteCSV); err != nil {
			return err
		}
	}
	if sel("fig8") {
		section("fig8")
		r, err := exp.Fig8(suite, rc.compress)
		if err != nil {
			return err
		}
		r.Write(out)
		if err := writeCSVFile(errOut, rc.csvDir, "fig8.csv", r.WriteCSV); err != nil {
			return err
		}
	}
	if sel("fig9") {
		section("fig9")
		r, err := exp.Fig9(suite)
		if err != nil {
			return err
		}
		r.Write(out)
		if err := writeCSVFile(errOut, rc.csvDir, "fig9.csv", r.WriteCSV); err != nil {
			return err
		}
	}
	if sel("headline") {
		section("headline")
		var cm *core.Suite
		if rc.cmesh {
			cm = newSuite(topology.NewCMesh(4, 4), opts)
		}
		r, err := exp.Headline(suite, rc.compress, cm)
		if err != nil {
			return err
		}
		r.Write(out)
		if err := writeCSVFile(errOut, rc.csvDir, "headline.csv", r.WriteCSV); err != nil {
			return err
		}
	}
	if sel("epochs") {
		section("epochs")
		factory := func(ep int64) *core.Suite {
			o := opts
			o.EpochTicks = ep
			return newSuite(topology.NewMesh(rc.meshW, rc.meshH), o)
		}
		r, err := exp.RunEpochSweep(factory, "fft", rc.compress, []int64{100, 250, 500, 1000})
		if err != nil {
			return err
		}
		r.Write(out)
	}
	if sel("tidle") {
		section("tidle")
		r, err := exp.TIdleSweep(suite, "fft", []int{2, 4, 8, 16, 32})
		if err != nil {
			return err
		}
		r.Write(out)
	}
	if sel("punch") {
		section("punch")
		r, err := exp.PunchSweep(suite, "fft", []int{0, 1, 2, 4, -1})
		if err != nil {
			return err
		}
		r.Write(out)
	}
	if sel("featcount") {
		section("featcount")
		r, err := exp.FeatureCountAblation(suite)
		if err != nil {
			return err
		}
		r.Write(out)
	}
	if sel("feat41") {
		section("feat41")
		r, err := exp.FeatureSet41(suite)
		if err != nil {
			return err
		}
		r.Write(out)
	}
	if sel("globaldvfs") {
		section("globaldvfs")
		r, err := exp.GlobalDVFS(suite, nil)
		if err != nil {
			return err
		}
		r.Write(out)
	}
	if sel("closedloop") {
		section("closedloop")
		r, err := exp.ClosedLoop(suite, mcsim.DefaultSystem(suite.Topo))
		if err != nil {
			return err
		}
		r.Write(out)
		sw, err := exp.ClosedLoopSweep(suite, nil, 100_000)
		if err != nil {
			return err
		}
		sw.Write(out)
	}
	return nil
}

// writeCSVFile writes one CSV export when -csv is set.
func writeCSVFile(errOut io.Writer, dir, name string, write func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := cli.WriteFile(path, write); err != nil {
		return err
	}
	fmt.Fprintln(errOut, "wrote", path)
	return nil
}
