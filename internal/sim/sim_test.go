package sim

import (
	"testing"

	"repro/internal/features"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func smallTrace(t *testing.T, topo topology.Topology, name string, horizon int64) *traffic.Trace {
	t.Helper()
	p, ok := traffic.ProfileByName(name)
	if !ok {
		t.Fatalf("unknown profile %q", name)
	}
	g := traffic.Generator{Topo: topo, Horizon: horizon, Seed: 11}
	return g.Generate(p)
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBaselineConservation(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "fft", 8000)
	res := run(t, Config{Topo: topo, Spec: policy.Baseline(), Trace: tr})
	if !res.Drained {
		t.Fatal("baseline failed to drain")
	}
	if res.PacketsInjected != int64(len(tr.Entries)) {
		t.Fatalf("injected %d, trace has %d", res.PacketsInjected, len(tr.Entries))
	}
	if res.PacketsDelivered != res.PacketsInjected {
		t.Fatalf("delivered %d of %d", res.PacketsDelivered, res.PacketsInjected)
	}
	if res.Throughput <= 0 || res.AvgLatencyTicks <= 0 {
		t.Fatal("throughput/latency not recorded")
	}
}

func TestBaselineAlwaysM7(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "fft", 4000)
	res := run(t, Config{Topo: topo, Spec: policy.Baseline(), Trace: tr})
	if res.OffFraction != 0 || res.WakeupFraction != 0 {
		t.Fatal("baseline must never gate")
	}
	if res.ModeResidency[power.M7.Index()] < 0.999 {
		t.Fatalf("M7 residency = %g, want 1", res.ModeResidency[power.M7.Index()])
	}
	if res.Policy.ModeSwitches != 0 {
		t.Fatal("baseline must never switch modes")
	}
}

func TestAllModelsConserveAndDrain(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "fft", 8000)
	specs := []policy.Spec{
		policy.Baseline(),
		policy.PowerGated(),
		policy.DVFSML(policy.ReactiveSelector{}),
		policy.DozzNoC(policy.ReactiveSelector{}),
		policy.MLTurbo(policy.ReactiveSelector{}, topo.NumRouters()),
	}
	for _, spec := range specs {
		res := run(t, Config{Topo: topo, Spec: spec, Trace: tr})
		if !res.Drained {
			t.Fatalf("%s failed to drain", spec.Name)
		}
		if res.PacketsDelivered != res.PacketsInjected {
			t.Fatalf("%s lost packets: %d/%d", spec.Name, res.PacketsDelivered, res.PacketsInjected)
		}
	}
}

func TestCMeshRuns(t *testing.T) {
	topo := topology.NewCMesh(4, 4)
	tr := smallTrace(t, topo, "fft", 8000)
	res := run(t, Config{Topo: topo, Spec: policy.DozzNoC(policy.ReactiveSelector{}), Trace: tr})
	if !res.Drained || res.PacketsDelivered != res.PacketsInjected {
		t.Fatalf("cmesh run broken: %+v", res)
	}
}

func TestPowerGatingSavesStatic(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "blackscholes", 12000) // sparse benchmark
	base := run(t, Config{Topo: topo, Spec: policy.Baseline(), Trace: tr})
	pg := run(t, Config{Topo: topo, Spec: policy.PowerGated(), Trace: tr})
	if pg.OffFraction <= 0.1 {
		t.Fatalf("PG off fraction = %g, expected substantial gating", pg.OffFraction)
	}
	if pg.StaticJ >= base.StaticJ {
		t.Fatalf("PG static %g >= baseline %g", pg.StaticJ, base.StaticJ)
	}
	if pg.DynamicJ != base.DynamicJ {
		// Same flits, same hops, same M7 energy per hop.
		t.Fatalf("PG dynamic %g != baseline %g", pg.DynamicJ, base.DynamicJ)
	}
	if pg.Policy.Gatings == 0 || pg.Policy.Wakes == 0 {
		t.Fatal("no gating activity recorded")
	}
}

func TestDVFSSavesDynamic(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "blackscholes", 12000)
	base := run(t, Config{Topo: topo, Spec: policy.Baseline(), Trace: tr})
	lead := run(t, Config{Topo: topo, Spec: policy.DVFSML(policy.ReactiveSelector{}), Trace: tr})
	if lead.DynamicJ >= base.DynamicJ {
		t.Fatalf("DVFS dynamic %g >= baseline %g", lead.DynamicJ, base.DynamicJ)
	}
	if lead.StaticJ >= base.StaticJ {
		t.Fatal("DVFS at lower voltages must also trim static energy")
	}
	if lead.OffFraction != 0 {
		t.Fatal("LEAD must not gate")
	}
}

func TestDozzNoCSavesBoth(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "blackscholes", 12000)
	base := run(t, Config{Topo: topo, Spec: policy.Baseline(), Trace: tr})
	dn := run(t, Config{Topo: topo, Spec: policy.DozzNoC(policy.ReactiveSelector{}), Trace: tr})
	pg := run(t, Config{Topo: topo, Spec: policy.PowerGated(), Trace: tr})
	if dn.StaticJ >= base.StaticJ || dn.DynamicJ >= base.DynamicJ {
		t.Fatal("DozzNoC must save both static and dynamic energy")
	}
	if dn.StaticJ >= pg.StaticJ {
		t.Fatalf("DozzNoC static %g should beat PG %g (lower active voltage)", dn.StaticJ, pg.StaticJ)
	}
}

func TestBaselineFastest(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "fft", 8000).Compress(2)
	base := run(t, Config{Topo: topo, Spec: policy.Baseline(), Trace: tr})
	for _, spec := range []policy.Spec{
		policy.PowerGated(),
		policy.DozzNoC(policy.ReactiveSelector{}),
	} {
		res := run(t, Config{Topo: topo, Spec: spec, Trace: tr})
		if res.Ticks < base.Ticks {
			t.Fatalf("%s finished before the baseline (%d < %d)", spec.Name, res.Ticks, base.Ticks)
		}
		if res.AvgLatencyTicks < base.AvgLatencyTicks {
			t.Fatalf("%s latency beats the baseline", spec.Name)
		}
	}
}

func TestDatasetCollection(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "fft", 4000)
	res := run(t, Config{
		Topo: topo, Spec: policy.DozzNoC(policy.ReactiveSelector{}),
		Trace: tr, CollectDataset: true, EpochTicks: 500,
	})
	ds := res.Dataset
	if ds == nil {
		t.Fatal("no dataset collected")
	}
	if ds.Dim() != features.Count {
		t.Fatalf("dataset dim = %d, want %d", ds.Dim(), features.Count)
	}
	// Rows per router per epoch, minus the first unlabeled epoch; the run
	// drains shortly after the horizon, so expect close to
	// routers * (epochs - 1) rows.
	minRows := topo.NumRouters() * (int(4000/500) - 1)
	if ds.Len() < minRows {
		t.Fatalf("dataset has %d rows, want >= %d", ds.Len(), minRows)
	}
	for i, row := range ds.X {
		if row[features.Bias] != 1 {
			t.Fatalf("row %d bias = %g", i, row[features.Bias])
		}
		if row[features.IBU] < 0 || row[features.IBU] > 1 {
			t.Fatalf("row %d IBU = %g out of range", i, row[features.IBU])
		}
		if ds.Y[i] < 0 || ds.Y[i] > 1 {
			t.Fatalf("row %d label %g out of range", i, ds.Y[i])
		}
	}
}

func TestNoDatasetByDefault(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "fft", 2000)
	res := run(t, Config{Topo: topo, Spec: policy.Baseline(), Trace: tr})
	if res.Dataset != nil {
		t.Fatal("dataset collected without being requested")
	}
}

func TestMaxTicksCapStopsRun(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "fft", 4000)
	res := run(t, Config{Topo: topo, Spec: policy.Baseline(), Trace: tr, MaxTicks: 100})
	if res.Drained {
		t.Fatal("run cannot drain in 100 ticks")
	}
	if res.Ticks != 100 {
		t.Fatalf("ran %d ticks, cap was 100", res.Ticks)
	}
}

func TestConfigValidation(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "fft", 1000)
	if _, err := Run(Config{Spec: policy.Baseline(), Trace: tr}); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := Run(Config{Topo: topo, Spec: policy.Baseline()}); err == nil {
		t.Error("nil trace accepted")
	}
	other := topology.NewMesh(8, 8)
	if _, err := Run(Config{Topo: other, Spec: policy.Baseline(), Trace: tr}); err == nil {
		t.Error("core-count mismatch accepted")
	}
}

// TestConfigRejectsBadRouterSizing checks that router sizings the fabric
// cannot build come back from Run and NewSession as errors, not panics.
func TestConfigRejectsBadRouterSizing(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	cmesh := topology.NewCMesh(2, 2)
	tr := smallTrace(t, mesh, "fft", 1000)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"odd VCs", Config{Topo: mesh, VCs: 3}},
		{"negative VCs", Config{Topo: mesh, VCs: -2}},
		{"negative depth", Config{Topo: mesh, Depth: -1}},
		{"negative pipeline", Config{Topo: mesh, Pipeline: -2}},
		{"mesh ports x VCs over 64", Config{Topo: mesh, VCs: 14}},
		{"cmesh ports x VCs over 64", Config{Topo: cmesh, VCs: 10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			cfg := tc.cfg
			cfg.Spec = policy.Baseline()
			if cfg.Topo == mesh {
				cfg.Trace = tr
			} else {
				cfg.Trace = smallTrace(t, cmesh, "fft", 1000)
			}
			if _, err := Run(cfg); err == nil {
				t.Error("Run accepted the configuration")
			}
			cfg.Trace = nil
			if _, err := NewSession(cfg); err == nil {
				t.Error("NewSession accepted the configuration")
			}
		})
	}
}

func TestEnergyAccountingCrossCheck(t *testing.T) {
	// Baseline static energy = routers * M7 watts * run seconds exactly.
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "fft", 4000)
	res := run(t, Config{Topo: topo, Spec: policy.Baseline(), Trace: tr})
	seconds := float64(res.Ticks) / (2250e6)
	want := 16 * 0.054 * seconds
	if res.StaticJ < want*0.999 || res.StaticJ > want*1.001 {
		t.Fatalf("baseline static = %g J, want %g", res.StaticJ, want)
	}
	// Dynamic: every flit pays (hops+1) router traversals at 56.5 pJ.
	var hops int64
	for _, e := range tr.Entries {
		hops += int64(e.Kind.Flits()) * int64(topology.Hops(topo, e.Src, e.Dst)+1)
	}
	wantDyn := float64(hops) * 56.5e-12
	if res.DynamicJ < wantDyn*0.999 || res.DynamicJ > wantDyn*1.001 {
		t.Fatalf("baseline dynamic = %g J, want %g", res.DynamicJ, wantDyn)
	}
}

func TestEDPAndTotal(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "fft", 2000)
	res := run(t, Config{Topo: topo, Spec: policy.Baseline(), Trace: tr})
	if res.TotalJ() != res.StaticJ+res.DynamicJ {
		t.Error("TotalJ wrong")
	}
	if res.EDP() <= 0 {
		t.Error("EDP must be positive")
	}
}

func TestResidencyFractionsSumToOne(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "blackscholes", 8000)
	res := run(t, Config{Topo: topo, Spec: policy.DozzNoC(policy.ReactiveSelector{}), Trace: tr})
	sum := res.OffFraction + res.WakeupFraction
	for _, m := range res.ModeResidency {
		sum += m
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("state residency sums to %g", sum)
	}
}

func TestPunchHopsZeroDisablesNothing(t *testing.T) {
	// NoPathPunch still delivers everything (heads wake hops one ahead).
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "fft", 6000)
	res := run(t, Config{Topo: topo, Spec: policy.PowerGated(), Trace: tr, NoPathPunch: true})
	if !res.Drained || res.PacketsDelivered != res.PacketsInjected {
		t.Fatal("run without path punch lost packets")
	}
	withPunch := run(t, Config{Topo: topo, Spec: policy.PowerGated(), Trace: tr})
	if withPunch.AvgLatencyTicks > res.AvgLatencyTicks*1.2 {
		t.Fatalf("path punch should not hurt latency much: %g vs %g",
			withPunch.AvgLatencyTicks, res.AvgLatencyTicks)
	}
}

func TestEpochTicksAffectsDecisions(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "fft", 8000)
	short := run(t, Config{Topo: topo, Spec: policy.DVFSML(policy.ReactiveSelector{}), Trace: tr, EpochTicks: 100})
	long := run(t, Config{Topo: topo, Spec: policy.DVFSML(policy.ReactiveSelector{}), Trace: tr, EpochTicks: 1000})
	if short.Policy.EpochDecisions <= long.Policy.EpochDecisions {
		t.Fatalf("epoch 100 made %d decisions, epoch 1000 made %d",
			short.Policy.EpochDecisions, long.Policy.EpochDecisions)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "fft", 4000)
	res := run(t, Config{Topo: topo, Spec: policy.Baseline(), Trace: tr})
	l := res.Latency
	if l.Count != res.PacketsDelivered {
		t.Fatalf("latency count %d != delivered %d", l.Count, res.PacketsDelivered)
	}
	if !(l.P50 <= l.P95 && l.P95 <= l.P99 && l.P99 <= l.Max) {
		t.Fatalf("percentiles unordered: %+v", l)
	}
	if l.Mean <= 0 || int64(l.Mean) > l.Max {
		t.Fatalf("mean %g out of range", l.Mean)
	}
}

func TestSeriesCollection(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "fft", 4000)
	res := run(t, Config{
		Topo: topo, Spec: policy.DozzNoC(policy.ReactiveSelector{}),
		Trace: tr, EpochTicks: 500, CollectSeries: true,
	})
	if res.Series == nil || len(res.Series.Samples) < 7 {
		t.Fatalf("series missing or short: %+v", res.Series)
	}
	prevFlits := int64(-1)
	for i, s := range res.Series.Samples {
		total := s.OffRouters + s.WakingRouters
		for _, m := range s.ModeRouters {
			total += m
		}
		if total != topo.NumRouters() {
			t.Fatalf("sample %d: router states sum to %d", i, total)
		}
		if s.FlitsDelivered < prevFlits {
			t.Fatalf("sample %d: cumulative flits decreased", i)
		}
		prevFlits = s.FlitsDelivered
		if s.AvgIBU < 0 || s.AvgIBU > 1 {
			t.Fatalf("sample %d: avg IBU %g", i, s.AvgIBU)
		}
	}
	if res2 := run(t, Config{Topo: topo, Spec: policy.Baseline(), Trace: tr}); res2.Series != nil {
		t.Fatal("series collected without being requested")
	}
}

func TestLinkLatencyAddsPerHopDelay(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "fft", 4000)
	fast := run(t, Config{Topo: topo, Spec: policy.Baseline(), Trace: tr})
	slow := run(t, Config{Topo: topo, Spec: policy.Baseline(), Trace: tr, LinkTicks: 2})
	if !slow.Drained || slow.PacketsDelivered != slow.PacketsInjected {
		t.Fatal("run with link latency lost packets")
	}
	if slow.AvgLatencyTicks <= fast.AvgLatencyTicks {
		t.Fatalf("link latency did not raise latency: %g vs %g",
			slow.AvgLatencyTicks, fast.AvgLatencyTicks)
	}
}

func TestLinkLatencyWithGatingConserves(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := smallTrace(t, topo, "blackscholes", 8000)
	res := run(t, Config{
		Topo: topo, Spec: policy.DozzNoC(policy.ReactiveSelector{}),
		Trace: tr, LinkTicks: 3,
	})
	if !res.Drained || res.PacketsDelivered != res.PacketsInjected {
		t.Fatal("gating + wire latency lost packets (in-flight securing broken)")
	}
	if res.OffFraction <= 0 {
		t.Fatal("no gating happened; the securing test is vacuous")
	}
}
