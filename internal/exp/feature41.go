package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// DozzNoC-41 vs DozzNoC-5 (§IV-B1): the paper reports "almost no impact
// on throughput, latency, dynamic energy savings, static power savings, or
// EDP" between a model trained on the original 41 features and one trained
// on the reduced 5-feature set. This experiment trains both (each with its
// own reactive data harvest and lambda sweep) and runs them side by side
// over the test benchmarks.

// FeatureSet41Row compares the two variants on one benchmark.
type FeatureSet41Row struct {
	Bench        string
	Static5      float64 // static savings vs baseline
	Static41     float64
	Dynamic5     float64
	Dynamic41    float64
	TputRatio    float64 // DozzNoC-41 throughput / DozzNoC-5 throughput
	LatencyRatio float64
	EDPRatio     float64
}

// FeatureSet41Result holds the comparison plus validation MSEs.
type FeatureSet41Result struct {
	ValMSE5  float64
	ValMSE41 float64
	Rows     []FeatureSet41Row
}

// FeatureSet41 runs the full DozzNoC-41 vs DozzNoC-5 comparison on the
// suite's topology (uncompressed traces). Both arms run the suite's
// config; the 41-feature arm only swaps in the extended extractor.
func FeatureSet41(s *core.Suite) (*FeatureSet41Result, error) {
	// The reduced model comes from the standard pipeline.
	rep5, err := s.Train(core.KindDozzNoC)
	if err != nil {
		return nil, err
	}

	// The extended model gets its own harvest with the 41-feature
	// extractor over the same train/validation protocol.
	var cfgs []sim.Config
	for _, name := range benchNames(traffic.Train, traffic.Validation) {
		tr, err := s.Trace(name)
		if err != nil {
			return nil, err
		}
		spec := policy.DozzNoC(policy.ReactiveSelector{})
		spec.Name = "DozzNoC(reactive,41)"
		cfg := extended(s, spec, tr)
		cfg.CollectDataset = true
		cfgs = append(cfgs, cfg)
	}
	res, err := s.RunConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	train41, val41 := ml.NewDataset(features.ExtendedNames), ml.NewDataset(features.ExtendedNames)
	nTrain := len(traffic.ProfilesBySplit(traffic.Train))
	for i, r := range res {
		if i < nTrain {
			train41.Merge(r.Dataset)
		} else {
			val41.Merge(r.Dataset)
		}
	}
	rep41, err := ml.TuneLambda(train41, val41, s.Opts.Lambdas)
	if err != nil {
		return nil, fmt.Errorf("exp: training DozzNoC-41: %w", err)
	}

	// Baseline, DozzNoC-5 and DozzNoC-41 per test benchmark, in one pool call.
	var runs []sim.Config
	for _, bench := range TestBenchNames() {
		tr, err := s.Trace(bench)
		if err != nil {
			return nil, err
		}
		spec5, err := s.Spec(core.KindDozzNoC)
		if err != nil {
			return nil, err
		}
		spec41 := policy.DozzNoC(policy.ProactiveSelector{Model: rep41.Best, ModelName: "DozzNoC-41"})
		spec41.Name = "DozzNoC-41"
		runs = append(runs, s.Config(policy.Baseline(), tr), s.Config(spec5, tr), extended(s, spec41, tr))
	}
	if res, err = s.RunConfigs(runs); err != nil {
		return nil, err
	}
	out := &FeatureSet41Result{ValMSE5: rep5.BestVal.ValMSE, ValMSE41: rep41.BestVal.ValMSE}
	for i, bench := range TestBenchNames() {
		base, r5, r41 := res[3*i], res[3*i+1], res[3*i+2]
		s5, s41, vs5 := core.Relate(base, r5), core.Relate(base, r41), core.Relate(r5, r41)
		out.Rows = append(out.Rows, FeatureSet41Row{
			Bench:        bench,
			Static5:      s5.StaticSavings,
			Static41:     s41.StaticSavings,
			Dynamic5:     s5.DynamicSavings,
			Dynamic41:    s41.DynamicSavings,
			TputRatio:    vs5.ThroughputRatio,
			LatencyRatio: vs5.LatencyRatio,
			EDPRatio:     vs5.EDPNorm,
		})
	}
	return out, nil
}

// extended is the suite's config of spec over tr with the 41-feature
// extractor in place of the reduced one.
func extended(s *core.Suite, spec policy.Spec, tr *traffic.Trace) sim.Config {
	cfg := s.Config(spec, tr)
	cfg.Extractor = features.NewExtendedExtractor(s.Topo)
	return cfg
}

// Write renders the comparison.
func (r *FeatureSet41Result) Write(w io.Writer) {
	fmt.Fprintln(w, "DozzNoC-41 vs DozzNoC-5 (uncompressed test benchmarks)")
	fmt.Fprintf(w, "validation MSE: 5 features %.3e, 41 features %.3e\n", r.ValMSE5, r.ValMSE41)
	fmt.Fprintf(w, "%-14s %10s %10s %10s %10s %10s %10s %10s\n",
		"bench", "stat-5", "stat-41", "dyn-5", "dyn-41", "tput41/5", "lat41/5", "EDP41/5")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %9.1f%% %9.1f%% %9.1f%% %9.1f%% %10.3f %10.3f %10.3f\n",
			row.Bench, 100*row.Static5, 100*row.Static41, 100*row.Dynamic5, 100*row.Dynamic41,
			row.TputRatio, row.LatencyRatio, row.EDPRatio)
	}
}
