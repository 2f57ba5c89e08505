package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/traffic"
	"repro/internal/vr"
)

// ---------------------------------------------------------------------
// Fig 5 — regulator transition waveforms.

// Fig5Result carries the two waveforms and their settle latencies.
type Fig5Result struct {
	Wakeup      []vr.Sample // 0V -> 0.8V (power-gating wake)
	Switch      []vr.Sample // 0.8V -> 1.2V (worst-case DVFS switch)
	WakeupNS    float64
	SwitchNS    float64
	StartNS     float64
	WakeTargets [2]float64
}

// Fig5 regenerates the Fig 5 waveforms with the transition starting at
// startNS and sampled every stepNS over horizonNS.
func Fig5(startNS, stepNS, horizonNS float64) Fig5Result {
	return Fig5Result{
		Wakeup:      vr.Fig5Wakeup(startNS, stepNS, horizonNS),
		Switch:      vr.Fig5Switch(startNS, stepNS, horizonNS),
		WakeupNS:    vr.SettledAfter(0, 0.8),
		SwitchNS:    vr.SettledAfter(0.8, 1.2),
		StartNS:     startNS,
		WakeTargets: [2]float64{0.8, 1.2},
	}
}

// Write renders the settle summary plus a decimated series.
func (f Fig5Result) Write(w io.Writer) {
	fmt.Fprintln(w, "Fig 5: real-valued regulator transition waveforms")
	fmt.Fprintf(w, "(a) T-Wakeup 0V->0.8V settles %.2f ns after the switch at t=%.1f ns\n", f.WakeupNS, f.StartNS)
	fmt.Fprintf(w, "(b) T-Switch 0.8V->1.2V settles %.2f ns after the switch at t=%.1f ns\n", f.SwitchNS, f.StartNS)
	writeSeries := func(label string, s []vr.Sample) {
		fmt.Fprintf(w, "%s t(ns):V ", label)
		step := len(s) / 12
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(s); i += step {
			fmt.Fprintf(w, " %.1f:%.2f", s[i].TimeNS, s[i].Volts)
		}
		fmt.Fprintln(w)
	}
	writeSeries("(a)", f.Wakeup)
	writeSeries("(b)", f.Switch)
}

// ---------------------------------------------------------------------
// Fig 6 — power-efficiency comparison.

// Fig6Result carries the efficiency curves and the paper's summary stats.
type Fig6Result struct {
	Curve []vr.EfficiencyPoint
	Stats vr.ImprovementStats
}

// Fig6 regenerates the Fig 6 comparison.
func Fig6() Fig6Result {
	return Fig6Result{Curve: vr.EfficiencyCurve(0.1), Stats: vr.Improvement()}
}

// Write renders the curve and summary.
func (f Fig6Result) Write(w io.Writer) {
	fmt.Fprintln(w, "Fig 6: power efficiency, SIMO+muxed LDO vs 1.2V-input LDO baseline")
	fmt.Fprintf(w, "%-8s %-10s %s\n", "Vout", "SIMO", "baseline")
	for _, p := range f.Curve {
		fmt.Fprintf(w, "%-8.1f %-10.3f %.3f\n", p.Vout, p.SIMO, p.Baseline)
	}
	fmt.Fprintf(w, "min efficiency %.1f%%; avg improvement %.1f pts; max improvement %.1f pts at %.1fV\n",
		100*f.Stats.MinEfficiency, 100*f.Stats.AvgImprovement, 100*f.Stats.MaxImprovement, f.Stats.MaxAtVolts)
}

// ---------------------------------------------------------------------
// Fig 7 — predicted-mode distribution per benchmark per ML model.

// ModeDist is the normalized M3..M7 decision distribution of one run.
type ModeDist struct {
	Bench string
	Share [power.NumActiveModes]float64
}

// Fig7Result holds distributions per ML model.
type Fig7Result struct {
	Models map[core.ModelKind][]ModeDist
}

// Fig7 runs the three ML models over every test benchmark (uncompressed,
// epoch 500) and reports each run's predicted-DVFS-mode breakdown.
func Fig7(s *core.Suite) (*Fig7Result, error) {
	if err := requireTrained(s); err != nil {
		return nil, err
	}
	var runs []core.Run
	for _, kind := range core.MLKinds {
		for _, bench := range TestBenchNames() {
			runs = append(runs, core.Run{Kind: kind, Bench: bench, Factor: 1})
		}
	}
	results, err := s.RunBenchmarks(runs)
	if err != nil {
		return nil, err
	}
	out := &Fig7Result{Models: make(map[core.ModelKind][]ModeDist)}
	for i, r := range runs {
		res := results[i]
		d := ModeDist{Bench: r.Bench}
		total := float64(res.Policy.EpochDecisions)
		if total > 0 {
			for m := range d.Share {
				d.Share[m] = float64(res.Policy.ModeDecisions[m]) / total
			}
		}
		out.Models[r.Kind] = append(out.Models[r.Kind], d)
	}
	return out, nil
}

// Write renders the distributions.
func (f *Fig7Result) Write(w io.Writer) {
	fmt.Fprintln(w, "Fig 7: predicted DVFS mode breakdown (share of epoch decisions)")
	for _, kind := range core.MLKinds {
		fmt.Fprintf(w, "-- %s\n", kind)
		fmt.Fprintf(w, "%-16s", "bench")
		for i := 0; i < power.NumActiveModes; i++ {
			fmt.Fprintf(w, "%8s", power.ActiveMode(i))
		}
		fmt.Fprintln(w)
		for _, d := range f.Models[kind] {
			fmt.Fprintf(w, "%-16s", d.Bench)
			for _, s := range d.Share {
				fmt.Fprintf(w, "%8.3f", s)
			}
			fmt.Fprintln(w)
		}
	}
}

// ---------------------------------------------------------------------
// Fig 8 — throughput and normalized energies.

// Fig8Row is one (benchmark, model) outcome.
type Fig8Row struct {
	Bench       string
	Kind        core.ModelKind
	Throughput  float64 // flits/tick
	TputRatio   float64 // vs baseline
	LatRatio    float64
	StaticNorm  float64
	DynamicNorm float64
}

// Fig8Result covers Fig 8(a) (compressed throughput) and Fig 8(b)/(c)
// (normalized energy, compressed and uncompressed).
type Fig8Result struct {
	Compression int64
	Compressed  []Fig8Row
	Uncompr     []Fig8Row
}

// Fig8 runs all five models over the test benchmarks at both compression
// settings.
func Fig8(s *core.Suite, compression int64) (*Fig8Result, error) {
	if err := requireTrained(s); err != nil {
		return nil, err
	}
	out := &Fig8Result{Compression: compression}
	for _, factor := range []int64{compression, 1} {
		for _, bench := range TestBenchNames() {
			cmp, err := s.Compare(bench, factor)
			if err != nil {
				return nil, err
			}
			for _, rel := range cmp.Relatives() {
				row := Fig8Row{
					Bench:       bench,
					Kind:        rel.Kind,
					Throughput:  cmp.Results[rel.Kind].Throughput,
					TputRatio:   rel.ThroughputRatio,
					LatRatio:    rel.LatencyRatio,
					StaticNorm:  rel.StaticNorm,
					DynamicNorm: rel.DynamicNorm,
				}
				if factor == 1 {
					out.Uncompr = append(out.Uncompr, row)
				} else {
					out.Compressed = append(out.Compressed, row)
				}
			}
		}
	}
	return out, nil
}

// Write renders the three panels.
func (f *Fig8Result) Write(w io.Writer) {
	fmt.Fprintf(w, "Fig 8(a): throughput, compressed x%d traces (flits/tick, ratio vs baseline)\n", f.Compression)
	writeFig8Panel(w, f.Compressed, func(r Fig8Row) string {
		return fmt.Sprintf("%7.3f (%.3f)", r.Throughput, r.TputRatio)
	})
	fmt.Fprintf(w, "Fig 8(b): energy normalized to baseline, compressed x%d (static/dynamic)\n", f.Compression)
	writeFig8Panel(w, f.Compressed, func(r Fig8Row) string {
		return fmt.Sprintf("%.3f/%.3f", r.StaticNorm, r.DynamicNorm)
	})
	fmt.Fprintln(w, "Fig 8(c): energy normalized to baseline, uncompressed (static/dynamic)")
	writeFig8Panel(w, f.Uncompr, func(r Fig8Row) string {
		return fmt.Sprintf("%.3f/%.3f", r.StaticNorm, r.DynamicNorm)
	})
}

func writeFig8Panel(w io.Writer, rows []Fig8Row, cell func(Fig8Row) string) {
	fmt.Fprintf(w, "%-16s", "bench")
	for _, k := range core.AllKinds {
		fmt.Fprintf(w, "%16s", k)
	}
	fmt.Fprintln(w)
	byBench := map[string]map[core.ModelKind]Fig8Row{}
	var order []string
	for _, r := range rows {
		if byBench[r.Bench] == nil {
			byBench[r.Bench] = map[core.ModelKind]Fig8Row{}
			order = append(order, r.Bench)
		}
		byBench[r.Bench][r.Kind] = r
	}
	for _, b := range order {
		fmt.Fprintf(w, "%-16s", b)
		for _, k := range core.AllKinds {
			fmt.Fprintf(w, "%16s", cell(byBench[b][k]))
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------
// Fig 9 — single-feature mode-selection accuracy.

// Fig9Row is the accuracy of one feature on one test trace.
type Fig9Row struct {
	Feature string
	Bench   string
	Acc     float64
}

// Fig9Result carries per-feature accuracies plus the all-features model.
type Fig9Result struct {
	Rows    []Fig9Row
	Average map[string]float64 // per feature, across test traces
}

// Fig9 trains DozzNoC ridge models on single features (bias + one
// candidate) over the training traces, tunes lambda on validation, and
// measures mode-selection accuracy on each of the five test traces. The
// "all-5" row is the full reduced feature set.
func Fig9(s *core.Suite) (*Fig9Result, error) {
	train, err := s.MergedDataset(core.KindDozzNoC, traffic.Train)
	if err != nil {
		return nil, err
	}
	val, err := s.MergedDataset(core.KindDozzNoC, traffic.Validation)
	if err != nil {
		return nil, err
	}
	modeOf := func(v float64) int { return int(policy.ModeForIBU(v)) }
	out := &Fig9Result{Average: make(map[string]float64)}

	type featCase struct {
		name string
		cols []int
	}
	var cases []featCase
	for f := 1; f < features.Count; f++ {
		cases = append(cases, featCase{name: features.Names[f], cols: []int{features.Bias, f}})
	}
	cases = append(cases, featCase{name: "all-5", cols: []int{0, 1, 2, 3, 4}})

	for _, fc := range cases {
		rep, err := ml.TuneLambda(train.Columns(fc.cols...), val.Columns(fc.cols...), s.Opts.Lambdas)
		if err != nil {
			return nil, fmt.Errorf("exp: fig9 feature %s: %w", fc.name, err)
		}
		sum := 0.0
		for _, bench := range TestBenchNames() {
			ds, err := s.Dataset(core.KindDozzNoC, bench)
			if err != nil {
				return nil, err
			}
			sub := ds.Columns(fc.cols...)
			acc := ml.ModeAccuracy(rep.Best.PredictAll(sub.X), sub.Y, modeOf)
			out.Rows = append(out.Rows, Fig9Row{Feature: fc.name, Bench: bench, Acc: acc})
			sum += acc
		}
		out.Average[fc.name] = sum / float64(len(TestBenchNames()))
	}
	return out, nil
}

// Write renders per-benchmark accuracies with per-feature averages.
func (f *Fig9Result) Write(w io.Writer) {
	fmt.Fprintln(w, "Fig 9: mode-selection accuracy of single-feature DozzNoC models")
	fmt.Fprintf(w, "%-12s %-16s %s\n", "feature", "bench", "accuracy")
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-12s %-16s %.3f\n", r.Feature, r.Bench, r.Acc)
	}
	fmt.Fprintln(w, "-- averages")
	for _, fc := range []string{"reqs_sent", "reqs_recv", "off_time", "ibu", "all-5"} {
		if v, ok := f.Average[fc]; ok {
			fmt.Fprintf(w, "%-12s %.3f\n", fc, v)
		}
	}
}

// ---------------------------------------------------------------------
// Headline (§IV-B2) — model averages across the test set.

// HeadlineRow is one model's averages across the five test benchmarks.
type HeadlineRow struct {
	Kind           core.ModelKind
	StaticSavings  float64
	DynamicSavings float64
	TputLoss       float64
	LatIncrease    float64
	OffFraction    float64
}

// HeadlineResult carries the mesh rows plus the cmesh DozzNoC row.
type HeadlineResult struct {
	Compression int64
	Mesh        []HeadlineRow
	CMesh       *HeadlineRow // DozzNoC on the 4x4 cmesh (nil if skipped)
}

// Headline reproduces the §IV-B2 summary: energy savings are averaged
// over uncompressed runs; throughput/latency deltas over compressed runs
// (where load is high enough for the models to differ), matching the
// paper's use of compressed traces for throughput.
func Headline(s *core.Suite, compression int64, cmesh *core.Suite) (*HeadlineResult, error) {
	if err := requireTrained(s); err != nil {
		return nil, err
	}
	rows, err := headlineRows(s, compression)
	if err != nil {
		return nil, err
	}
	out := &HeadlineResult{Compression: compression, Mesh: rows}
	if cmesh != nil {
		if err := requireTrained(cmesh); err != nil {
			return nil, err
		}
		crows, err := headlineRows(cmesh, compression)
		if err != nil {
			return nil, err
		}
		for i := range crows {
			if crows[i].Kind == core.KindDozzNoC {
				out.CMesh = &crows[i]
			}
		}
	}
	return out, nil
}

func headlineRows(s *core.Suite, compression int64) ([]HeadlineRow, error) {
	benches := TestBenchNames()
	acc := map[core.ModelKind]*HeadlineRow{}
	for _, k := range core.AllKinds {
		acc[k] = &HeadlineRow{Kind: k}
	}
	for _, bench := range benches {
		unc, err := s.Compare(bench, 1)
		if err != nil {
			return nil, err
		}
		cmp, err := s.Compare(bench, compression)
		if err != nil {
			return nil, err
		}
		for _, rel := range unc.Relatives() {
			acc[rel.Kind].StaticSavings += rel.StaticSavings
			acc[rel.Kind].DynamicSavings += rel.DynamicSavings
			acc[rel.Kind].OffFraction += rel.OffFraction
		}
		for _, rel := range cmp.Relatives() {
			acc[rel.Kind].TputLoss += 1 - rel.ThroughputRatio
			acc[rel.Kind].LatIncrease += rel.LatencyRatio - 1
		}
	}
	n := float64(len(benches))
	rows := make([]HeadlineRow, 0, len(core.AllKinds))
	for _, k := range core.AllKinds {
		r := acc[k]
		r.StaticSavings /= n
		r.DynamicSavings /= n
		r.TputLoss /= n
		r.LatIncrease /= n
		r.OffFraction /= n
		rows = append(rows, *r)
	}
	return rows, nil
}

// Write renders the headline table.
func (h *HeadlineResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Headline (averages over 5 test benchmarks; energy uncompressed, perf compressed x%d)\n", h.Compression)
	fmt.Fprintf(w, "%-10s %10s %10s %10s %10s %8s\n", "model", "static-sav", "dyn-sav", "tput-loss", "lat-incr", "off-frac")
	for _, r := range h.Mesh {
		writeHeadlineRow(w, r)
	}
	if h.CMesh != nil {
		fmt.Fprintln(w, "-- cmesh 4x4")
		writeHeadlineRow(w, *h.CMesh)
	}
}

func writeHeadlineRow(w io.Writer, r HeadlineRow) {
	fmt.Fprintf(w, "%-10s %9.1f%% %9.1f%% %9.1f%% %9.1f%% %8.3f\n",
		r.Kind, 100*r.StaticSavings, 100*r.DynamicSavings, 100*r.TputLoss, 100*r.LatIncrease, r.OffFraction)
}

// ---------------------------------------------------------------------
// Epoch-size sweep (§IV-B1 trade-off study).

// EpochSweepRow is DozzNoC's outcome at one epoch size.
type EpochSweepRow struct {
	EpochTicks     int64
	StaticSavings  float64
	DynamicSavings float64
	TputLoss       float64
	ValMSE         float64
}

// EpochSweepResult holds the sweep over epoch sizes.
type EpochSweepResult struct {
	Bench string
	Rows  []EpochSweepRow
}

// EpochSweep retrains and reruns DozzNoC at several epoch sizes on one
// benchmark (the paper trains each epoch size separately and picks 500).
type epochSuiteFactory func(epochTicks int64) *core.Suite

// RunEpochSweep executes the sweep; newSuite must return a fresh suite
// configured for the given epoch size (each epoch size trains its own
// model, per the paper).
func RunEpochSweep(newSuite epochSuiteFactory, bench string, compression int64, epochs []int64) (*EpochSweepResult, error) {
	out := &EpochSweepResult{Bench: bench}
	for _, ep := range epochs {
		s := newSuite(ep)
		rep, err := s.Train(core.KindDozzNoC)
		if err != nil {
			return nil, err
		}
		row := EpochSweepRow{EpochTicks: ep, ValMSE: rep.BestVal.ValMSE}
		// Only baseline and DozzNoC are needed; the other models would
		// require their own per-epoch-size training.
		baseU, err := s.RunBenchmark(core.KindBaseline, bench, 1)
		if err != nil {
			return nil, err
		}
		dozzU, err := s.RunBenchmark(core.KindDozzNoC, bench, 1)
		if err != nil {
			return nil, err
		}
		if baseU.StaticJ > 0 {
			row.StaticSavings = 1 - dozzU.StaticJ/baseU.StaticJ
		}
		if baseU.DynamicJ > 0 {
			row.DynamicSavings = 1 - dozzU.DynamicJ/baseU.DynamicJ
		}
		baseC, err := s.RunBenchmark(core.KindBaseline, bench, compression)
		if err != nil {
			return nil, err
		}
		dozzC, err := s.RunBenchmark(core.KindDozzNoC, bench, compression)
		if err != nil {
			return nil, err
		}
		if baseC.Throughput > 0 {
			row.TputLoss = 1 - dozzC.Throughput/baseC.Throughput
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Write renders the sweep.
func (e *EpochSweepResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Epoch-size sweep, DozzNoC on %s\n", e.Bench)
	fmt.Fprintf(w, "%-8s %10s %10s %10s %12s\n", "epoch", "static-sav", "dyn-sav", "tput-loss", "val-MSE")
	for _, r := range e.Rows {
		fmt.Fprintf(w, "%-8d %9.1f%% %9.1f%% %9.1f%% %12.3e\n",
			r.EpochTicks, 100*r.StaticSavings, 100*r.DynamicSavings, 100*r.TputLoss, r.ValMSE)
	}
}
