package exp

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/mcsim"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// direct runs cfg outside the suite's pool.
func direct(t *testing.T, cfg sim.Config) *sim.Result {
	t.Helper()
	r, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPooledAblationsMatchDirectRuns checks the ablations' wiring at a
// seed other than 1: every T-Idle, punch-horizon and global-DVFS row
// equals the same row computed from direct sim.Run calls of the suite's
// config over the suite's trace, and every closed-loop row equals a
// direct run over an mcsim system whose seed the suite's seed shifted.
// On a pool wider than one run the sections run their simulations
// concurrently — global selectors and mcsim workloads included — so
// under -race it is the pooled experiments' race gate.
func TestPooledAblationsMatchDirectRuns(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Log("GOMAXPROCS 1: the pool runs one simulation at a time")
	}
	s := core.NewSuite(topology.NewMesh(4, 4), core.Options{Horizon: 4000, Seed: 3})
	tr, err := s.Trace("fft")
	if err != nil {
		t.Fatal(err)
	}
	base := direct(t, s.Config(policy.Baseline(), tr))

	tidle, err := TIdleSweep(s, "fft", []int{2, 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tidle.Rows {
		spec := policy.DozzNoC(policy.ReactiveSelector{})
		spec.TIdle = row.TIdle
		r := direct(t, s.Config(spec, tr))
		rel := core.Relate(base, r)
		want := TIdleRow{row.TIdle, rel.StaticSavings, rel.LatencyRatio, r.Policy.Gatings, rel.BreakevenMetFrac, r.WakeupFraction}
		if row != want {
			t.Errorf("T-Idle %d: pooled %+v, direct %+v", row.TIdle, row, want)
		}
	}
	seed1, err := TIdleSweep(ablationSuite(4000), "fft", []int{2, 16})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(seed1.Rows, tidle.Rows) {
		t.Error("T-Idle sweep reads the same at seeds 1 and 3: the suite's trace is not used")
	}

	punch, err := PunchSweep(s, "fft", []int{0, 2, -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range punch.Rows {
		cfg := s.Config(policy.PowerGated(), tr)
		cfg.PunchHops, cfg.NoPathPunch = row.PunchHops, row.PunchHops == 0
		rel := core.Relate(base, direct(t, cfg))
		want := PunchRow{row.PunchHops, rel.StaticSavings, rel.LatencyRatio, rel.ThroughputRatio}
		if row != want {
			t.Errorf("punch %d: pooled %+v, direct %+v", row.PunchHops, row, want)
		}
	}

	benches := []string{"fft", "lu"}
	global, err := GlobalDVFS(s, benches)
	if err != nil {
		t.Fatal(err)
	}
	for i, bench := range benches {
		btr, err := s.Trace(bench)
		if err != nil {
			t.Fatal(err)
		}
		gspec := policy.DVFSML(policy.NewGlobalSelector(policy.ReactiveSelector{}))
		b := direct(t, s.Config(policy.Baseline(), btr))
		l := core.Relate(b, direct(t, s.Config(policy.DVFSML(policy.ReactiveSelector{}), btr)))
		g := core.Relate(b, direct(t, s.Config(gspec, btr)))
		want := GlobalDVFSRow{bench, l.StaticSavings, g.StaticSavings, l.DynamicSavings, g.DynamicSavings, l.LatencyRatio, g.LatencyRatio}
		if global.Rows[i] != want {
			t.Errorf("%s: pooled %+v, direct %+v", bench, global.Rows[i], want)
		}
	}

	params, err := mcsim.ParamsForBenchmark(s.Topo, "lu", 15_000)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := ClosedLoop(s, params)
	if err != nil {
		t.Fatal(err)
	}
	params.Seed += 2 // seed 3 shifts the preset's seed by 2
	dozz := policy.DozzNoC(policy.ReactiveSelector{})
	for _, row := range []ClosedLoopRow{closed.Rows[0], closed.Rows[3]} {
		spec := policy.Baseline()
		if row.Model == dozz.Name {
			spec = dozz
		}
		w, err := mcsim.New(params)
		if err != nil {
			t.Fatal(err)
		}
		cfg := s.Config(spec, nil)
		cfg.Workload = w
		r := direct(t, cfg)
		if r.Ticks != row.Ticks || w.Stats().StalledTicks != row.StalledTicks || r.OffFraction != row.OffFraction {
			t.Errorf("closed loop %s: pooled %+v, direct ticks %d stalls %d off %g",
				row.Model, row, r.Ticks, w.Stats().StalledTicks, r.OffFraction)
		}
	}

	sweep, err := ClosedLoopSweep(s, []string{"lu"}, 15_000)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range sweep.Rows {
		c := closed.Rows[i]
		want := ClosedLoopSweepRow{c.Model, c.Slowdown, c.StaticSavings, c.DynamicSavings, c.OffFraction}
		if row != want {
			t.Errorf("sweep %s: %+v, want the closed loop's %+v", row.Model, row, want)
		}
	}
}

// TestObservedAblationsBindEveryRun attaches an observer to the suite
// and counts its binds: every ablation simulation — reactive harvests,
// 41-feature harvests, closed-loop runs — is observed, so the pool ran
// them one at a time on the suite's observer.
func TestObservedAblationsBindEveryRun(t *testing.T) {
	if testing.Short() {
		t.Skip("observed ablations in -short mode")
	}
	o := obs.New()
	s := core.NewSuite(topology.NewMesh(4, 4), core.Options{Horizon: 3000, Seed: 3, Obs: o})
	injectTrivialModels(s)
	var want int64
	check := func(section string, runs int) {
		t.Helper()
		want += int64(runs)
		if got := o.Metrics.Snapshot().Run; got != want {
			t.Fatalf("after %s the observer bound %d runs, want %d", section, got, want)
		}
	}
	tests := len(TestBenchNames())
	if _, err := TIdleSweep(s, "fft", []int{2, 4, 8}); err != nil {
		t.Fatal(err)
	}
	check("tidle", 1+3)
	if _, err := PunchSweep(s, "fft", []int{0, -1}); err != nil {
		t.Fatal(err)
	}
	check("punch", 1+2)
	if _, err := GlobalDVFS(s, []string{"fft", "lu"}); err != nil {
		t.Fatal(err)
	}
	check("globaldvfs", 3*2)
	if _, err := Fig9(s); err != nil {
		t.Fatal(err)
	}
	check("fig9", len(benchNames(traffic.Train, traffic.Validation, traffic.Test)))
	if _, err := FeatureCountAblation(s); err != nil {
		t.Fatal(err)
	}
	check("featcount (datasets cached)", 0)
	if _, err := FeatureSet41(s); err != nil {
		t.Fatal(err)
	}
	check("feat41", len(benchNames(traffic.Train, traffic.Validation))+3*tests)
	params := mcsim.DefaultSystem(s.Topo)
	params.Core.Instructions = 5_000
	if _, err := ClosedLoop(s, params); err != nil {
		t.Fatal(err)
	}
	check("closedloop", 5)
	if _, err := ClosedLoopSweep(s, []string{"fft", "lu"}, 5_000); err != nil {
		t.Fatal(err)
	}
	check("closedloop sweep", 2*5)
}

// TestTrainedFiguresNeverHarvest runs Fig7, Fig8 and Headline on an
// observed suite whose three ML kinds are installed up front: each
// figure's TrainAll must find nothing to train, so the observer binds
// exactly the figure's own runs and no reactive harvest.
func TestTrainedFiguresNeverHarvest(t *testing.T) {
	if testing.Short() {
		t.Skip("observed figures in -short mode")
	}
	o := obs.New()
	s := core.NewSuite(topology.NewMesh(4, 4), core.Options{Horizon: 2000, Seed: 3, Obs: o})
	injectTrivialModels(s)
	var want int64
	check := func(figure string, runs int) {
		t.Helper()
		want += int64(runs)
		if got := o.Metrics.Snapshot().Run; got != want {
			t.Fatalf("after %s the observer bound %d runs, want %d", figure, got, want)
		}
	}
	tests := len(TestBenchNames())
	if _, err := Fig7(s); err != nil {
		t.Fatal(err)
	}
	check("fig7", len(core.MLKinds)*tests)
	if _, err := Fig8(s, 2); err != nil {
		t.Fatal(err)
	}
	check("fig8", 2*len(core.AllKinds)*tests)
	if _, err := Headline(s, 2, nil); err != nil {
		t.Fatal(err)
	}
	check("headline", 2*len(core.AllKinds)*tests)
}

// TestFeatureSet41UsesSuiteConfig runs FeatureSet41 on a suite with a
// non-default engine option (LinkTicks 2) and rebuilds its DozzNoC-41
// arm by hand from direct runs of the suite's config with the extended
// extractor: harvest, lambda sweep, test runs. An arm that dropped any
// of the suite's options would harvest and run a different network.
func TestFeatureSet41UsesSuiteConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("extended training in -short mode")
	}
	s := core.NewSuite(topology.NewMesh(4, 4), core.Options{Horizon: 3000, Seed: 3, LinkTicks: 2})
	injectTrivialModels(s)
	got, err := FeatureSet41(s)
	if err != nil {
		t.Fatal(err)
	}

	reactive := policy.DozzNoC(policy.ReactiveSelector{})
	harvest := func(split traffic.Split) *ml.Dataset {
		d := ml.NewDataset(features.ExtendedNames)
		for _, name := range benchNames(split) {
			tr, err := s.Trace(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := s.Config(reactive, tr)
			cfg.Extractor = features.NewExtendedExtractor(s.Topo)
			cfg.CollectDataset = true
			d.Merge(direct(t, cfg).Dataset)
		}
		return d
	}
	rep41, err := ml.TuneLambda(harvest(traffic.Train), harvest(traffic.Validation), s.Opts.Lambdas)
	if err != nil {
		t.Fatal(err)
	}
	if got.ValMSE41 != rep41.BestVal.ValMSE {
		t.Errorf("41-feature validation MSE %g, direct harvest gives %g", got.ValMSE41, rep41.BestVal.ValMSE)
	}
	spec5, err := s.Spec(core.KindDozzNoC)
	if err != nil {
		t.Fatal(err)
	}
	for i, bench := range TestBenchNames() {
		tr, err := s.Trace(bench)
		if err != nil {
			t.Fatal(err)
		}
		cfg41 := s.Config(policy.DozzNoC(policy.ProactiveSelector{Model: rep41.Best}), tr)
		cfg41.Extractor = features.NewExtendedExtractor(s.Topo)
		base := direct(t, s.Config(policy.Baseline(), tr))
		r5, r41 := direct(t, s.Config(spec5, tr)), direct(t, cfg41)
		s5, s41, vs5 := core.Relate(base, r5), core.Relate(base, r41), core.Relate(r5, r41)
		want := FeatureSet41Row{bench, s5.StaticSavings, s41.StaticSavings, s5.DynamicSavings,
			s41.DynamicSavings, vs5.ThroughputRatio, vs5.LatencyRatio, vs5.EDPNorm}
		if got.Rows[i] != want {
			t.Errorf("%s: FeatureSet41 %+v, direct %+v", bench, got.Rows[i], want)
		}
	}
}
