package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Ablation studies for the design choices DESIGN.md calls out. They use
// the reactive selector (no trained model needed), since the knobs under
// study — T-Idle, the wake-punch horizon — act on the power-gating loop,
// not the predictor. Each runs the suite's configs over the suite's
// traces on the suite's pool.

// TIdleRow is the outcome of one T-Idle setting.
type TIdleRow struct {
	TIdle          int
	StaticSavings  float64
	LatencyRatio   float64
	Gatings        int64
	BreakevenFrac  float64
	WakeupFraction float64
}

// TIdleSweepResult sweeps the consecutive-idle-cycle gating threshold.
type TIdleSweepResult struct {
	Bench string
	Rows  []TIdleRow
}

// TIdleSweep reruns the reactive DozzNoC model on one of the suite's
// benchmarks with several T-Idle values (the paper adopts 4 from Catnap
// and argues small values cause congestion/breakeven misses while large
// ones forgo savings).
func TIdleSweep(s *core.Suite, bench string, tidles []int) (*TIdleSweepResult, error) {
	tr, err := s.Trace(bench)
	if err != nil {
		return nil, err
	}
	var cfgs []sim.Config
	for _, ti := range tidles {
		spec := policy.DozzNoC(policy.ReactiveSelector{})
		spec.TIdle = ti
		cfgs = append(cfgs, s.Config(spec, tr))
	}
	res, rels, err := vsBaseline(s, tr, cfgs)
	if err != nil {
		return nil, err
	}
	out := &TIdleSweepResult{Bench: bench}
	for i, ti := range tidles {
		out.Rows = append(out.Rows, TIdleRow{
			TIdle:          ti,
			StaticSavings:  rels[i].StaticSavings,
			LatencyRatio:   rels[i].LatencyRatio,
			Gatings:        res[i].Policy.Gatings,
			BreakevenFrac:  rels[i].BreakevenMetFrac,
			WakeupFraction: res[i].WakeupFraction,
		})
	}
	return out, nil
}

// vsBaseline runs cfgs and a baseline over tr in one pool call and
// returns the results of cfgs, each also related to the baseline's.
func vsBaseline(s *core.Suite, tr *traffic.Trace, cfgs []sim.Config) ([]*sim.Result, []core.Relative, error) {
	res, err := s.RunConfigs(append(cfgs, s.Config(policy.Baseline(), tr)))
	if err != nil {
		return nil, nil, err
	}
	base, res := res[len(cfgs)], res[:len(cfgs)]
	rels := make([]core.Relative, len(res))
	for i, r := range res {
		rels[i] = core.Relate(base, r)
	}
	return res, rels, nil
}

// Write renders the sweep.
func (r *TIdleSweepResult) Write(w io.Writer) {
	fmt.Fprintf(w, "T-Idle sweep, reactive DozzNoC on %s\n", r.Bench)
	fmt.Fprintf(w, "%-8s %12s %10s %10s %12s %10s\n",
		"T-Idle", "static-sav", "lat-ratio", "gatings", "breakeven", "wake-frac")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8d %11.1f%% %10.3f %10d %11.1f%% %10.3f\n",
			row.TIdle, 100*row.StaticSavings, row.LatencyRatio, row.Gatings,
			100*row.BreakevenFrac, row.WakeupFraction)
	}
}

// PunchRow is one wake-punch-horizon setting.
type PunchRow struct {
	PunchHops     int // -1 = whole path, 0 = none beyond head-accept wakes
	StaticSavings float64
	LatencyRatio  float64
	TputRatio     float64
}

// PunchSweepResult sweeps the injection-time wake-punch horizon.
type PunchSweepResult struct {
	Bench string
	Rows  []PunchRow
}

// PunchSweep measures how far ahead wake punches must travel: none (heads
// wake the next hop only), k hops, or the whole XY path (Power Punch
// style). Less punching saves slightly more static power but serializes
// wakeups into packet latency. Each setting overrides only the punch
// fields of the suite's config.
func PunchSweep(s *core.Suite, bench string, hops []int) (*PunchSweepResult, error) {
	tr, err := s.Trace(bench)
	if err != nil {
		return nil, err
	}
	var cfgs []sim.Config
	for _, h := range hops {
		cfg := s.Config(policy.PowerGated(), tr)
		cfg.PunchHops, cfg.NoPathPunch = h, h == 0
		cfgs = append(cfgs, cfg)
	}
	_, rels, err := vsBaseline(s, tr, cfgs)
	if err != nil {
		return nil, err
	}
	out := &PunchSweepResult{Bench: bench}
	for i, h := range hops {
		out.Rows = append(out.Rows, PunchRow{
			PunchHops:     h,
			StaticSavings: rels[i].StaticSavings,
			LatencyRatio:  rels[i].LatencyRatio,
			TputRatio:     rels[i].ThroughputRatio,
		})
	}
	return out, nil
}

// Write renders the sweep.
func (r *PunchSweepResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Wake-punch horizon sweep, PG on %s (-1 = whole path, 0 = next-hop only)\n", r.Bench)
	fmt.Fprintf(w, "%-8s %12s %10s %10s\n", "hops", "static-sav", "lat-ratio", "tput-ratio")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8d %11.1f%% %10.3f %10.3f\n",
			row.PunchHops, 100*row.StaticSavings, row.LatencyRatio, row.TputRatio)
	}
}

// FeatureCountRow is one feature-subset model.
type FeatureCountRow struct {
	Label    string
	Features int
	ValMSE   float64
	TestAcc  float64
	EnergyPJ float64
}

// FeatureCountResult is the 5-vs-fewer-features ablation backing the
// paper's claim that the reduced set loses nothing (§IV-B1).
type FeatureCountResult struct{ Rows []FeatureCountRow }

// FeatureCountAblation trains DozzNoC ridge models on growing feature
// subsets and reports validation MSE, test mode-selection accuracy and
// the per-label energy cost of each subset.
func FeatureCountAblation(s *core.Suite) (*FeatureCountResult, error) {
	train, val, err := dozzDatasets(s)
	if err != nil {
		return nil, err
	}
	subsets := []struct {
		label string
		cols  []int
	}{
		{"ibu-only", []int{0, 4}},
		{"ibu+sent", []int{0, 1, 4}},
		{"ibu+sent+recv", []int{0, 1, 2, 4}},
		{"all-5", []int{0, 1, 2, 3, 4}},
	}
	out := &FeatureCountResult{}
	for _, sub := range subsets {
		rep, _, acc, err := tuneSubset(s, train, val, sub.cols)
		if err != nil {
			return nil, fmt.Errorf("exp: feature ablation %s: %w", sub.label, err)
		}
		out.Rows = append(out.Rows, FeatureCountRow{
			Label:    sub.label,
			Features: len(sub.cols),
			ValMSE:   rep.BestVal.ValMSE,
			TestAcc:  acc,
			EnergyPJ: ml.LabelOverhead(len(sub.cols)).EnergyPJ,
		})
	}
	return out, nil
}

// dozzDatasets harvests DozzNoC's reactive datasets over the training,
// validation and test traces on the suite's pool and returns the merged
// training and validation sets.
func dozzDatasets(s *core.Suite) (train, val *ml.Dataset, err error) {
	dozz := []core.ModelKind{core.KindDozzNoC}
	if err := s.HarvestParallel(dozz, benchNames(traffic.Train, traffic.Validation, traffic.Test)); err != nil {
		return nil, nil, err
	}
	if train, err = s.MergedDataset(core.KindDozzNoC, traffic.Train); err != nil {
		return nil, nil, err
	}
	if val, err = s.MergedDataset(core.KindDozzNoC, traffic.Validation); err != nil {
		return nil, nil, err
	}
	return train, val, nil
}

// tuneSubset tunes a DozzNoC ridge model on the given feature columns of
// the training and validation sets and scores its mode-selection
// accuracy on each test benchmark, in TestBenchNames order, and on
// average.
func tuneSubset(s *core.Suite, train, val *ml.Dataset, cols []int) (rep *ml.TrainReport, accs []float64, mean float64, err error) {
	if rep, err = ml.TuneLambda(train.Columns(cols...), val.Columns(cols...), s.Opts.Lambdas); err != nil {
		return nil, nil, 0, err
	}
	modeOf := func(v float64) int { return int(policy.ModeForIBU(v)) }
	for _, bench := range TestBenchNames() {
		ds, err := s.Dataset(core.KindDozzNoC, bench)
		if err != nil {
			return nil, nil, 0, err
		}
		c := ds.Columns(cols...)
		acc := ml.ModeAccuracy(rep.Best.PredictAll(c.X), c.Y, modeOf)
		accs, mean = append(accs, acc), mean+acc
	}
	return rep, accs, mean / float64(len(accs)), nil
}

// Write renders the ablation.
func (r *FeatureCountResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Feature-count ablation (DozzNoC ridge models)")
	fmt.Fprintf(w, "%-16s %10s %12s %10s %10s\n", "subset", "features", "val-MSE", "test-acc", "label-pJ")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %10d %12.3e %10.3f %10.1f\n",
			row.Label, row.Features, row.ValMSE, row.TestAcc, row.EnergyPJ)
	}
}

// GlobalDVFSRow compares per-router vs globally coordinated DVFS on one
// benchmark.
type GlobalDVFSRow struct {
	Bench          string
	LocalStatic    float64 // savings vs baseline
	GlobalStatic   float64
	LocalDynamic   float64
	GlobalDynamic  float64
	LocalLatRatio  float64
	GlobalLatRatio float64
}

// GlobalDVFSResult quantifies DozzNoC's per-router-domain argument.
type GlobalDVFSResult struct{ Rows []GlobalDVFSRow }

// GlobalDVFS runs the DVFS-only model with per-router (local) mode
// selection against a globally coordinated variant where every router
// adopts the network-wide maximum requested mode — quantifying the
// paper's argument that per-router voltage domains (enabled by the
// per-router SIMO/LDO supplies) save energy that global coordination
// wastes on idle regions.
func GlobalDVFS(s *core.Suite, benches []string) (*GlobalDVFSResult, error) {
	if len(benches) == 0 {
		benches = TestBenchNames()
	}
	var cfgs []sim.Config
	for _, bench := range benches {
		tr, err := s.Trace(bench)
		if err != nil {
			return nil, err
		}
		gspec := policy.DVFSML(policy.NewGlobalSelector(policy.ReactiveSelector{}))
		gspec.Name = "DVFS-global"
		cfgs = append(cfgs, s.Config(policy.Baseline(), tr),
			s.Config(policy.DVFSML(policy.ReactiveSelector{}), tr), s.Config(gspec, tr))
	}
	res, err := s.RunConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	out := &GlobalDVFSResult{}
	for i, bench := range benches {
		local, global := core.Relate(res[3*i], res[3*i+1]), core.Relate(res[3*i], res[3*i+2])
		out.Rows = append(out.Rows, GlobalDVFSRow{
			Bench:          bench,
			LocalStatic:    local.StaticSavings,
			GlobalStatic:   global.StaticSavings,
			LocalDynamic:   local.DynamicSavings,
			GlobalDynamic:  global.DynamicSavings,
			LocalLatRatio:  local.LatencyRatio,
			GlobalLatRatio: global.LatencyRatio,
		})
	}
	return out, nil
}

// Write renders the comparison.
func (r *GlobalDVFSResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Per-router vs globally coordinated DVFS (reactive selectors)")
	fmt.Fprintf(w, "%-14s %10s %10s %10s %10s %10s %10s\n",
		"bench", "stat-loc", "stat-glob", "dyn-loc", "dyn-glob", "lat-loc", "lat-glob")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %9.1f%% %9.1f%% %9.1f%% %9.1f%% %10.3f %10.3f\n",
			row.Bench, 100*row.LocalStatic, 100*row.GlobalStatic,
			100*row.LocalDynamic, 100*row.GlobalDynamic,
			row.LocalLatRatio, row.GlobalLatRatio)
	}
}
