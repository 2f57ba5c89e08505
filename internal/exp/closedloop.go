package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/mcsim"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Closed-loop full-system experiment: instead of replaying traces, run
// the mcsim multicore model (cores stall on MSHRs, so network slowdown
// stretches application runtime) under every power-management model.
// The application slowdown is the closed-loop analogue of the paper's
// throughput loss, and with the reactive selectors it reproduces the
// §IV-B2 numbers strikingly well (see EXPERIMENTS.md).

// ClosedLoopRow is one model's end-to-end outcome.
type ClosedLoopRow struct {
	Model          string
	Ticks          int64
	Slowdown       float64 // runtime vs baseline
	StaticSavings  float64
	DynamicSavings float64
	OffFraction    float64
	StalledTicks   int64
}

// ClosedLoopResult holds all five models.
type ClosedLoopResult struct {
	Rows []ClosedLoopRow
}

// ClosedLoop runs the five models over the same multicore workload on
// the suite's topology and pool.
func ClosedLoop(s *core.Suite, params mcsim.SystemParams) (*ClosedLoopResult, error) {
	out, err := closedLoops(s, params)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// closedLoops runs the five models over a fresh mcsim system built from
// each of params, all in one pool call, and returns one comparison per
// params. The suite's seed shifts every workload's seed, so the default
// seed 1 runs params as given.
func closedLoops(s *core.Suite, params ...mcsim.SystemParams) ([]*ClosedLoopResult, error) {
	var cfgs []sim.Config
	var systems []*mcsim.System
	for _, p := range params {
		p.Seed += s.Opts.Seed - 1
		for _, k := range core.AllKinds {
			w, err := mcsim.New(p)
			if err != nil {
				return nil, err
			}
			cfg := s.Config(k.Build(policy.ReactiveSelector{}, s.Topo.NumRouters()), nil)
			cfg.Workload = w
			cfgs, systems = append(cfgs, cfg), append(systems, w)
		}
	}
	res, err := s.RunConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	models := len(cfgs) / len(params)
	out := make([]*ClosedLoopResult, len(params))
	for i, r := range res {
		if !r.Drained {
			return nil, fmt.Errorf("exp: closed loop %s did not finish", r.Model)
		}
		base := res[i-i%models]
		rel := core.Relate(base, r)
		if out[i/models] == nil {
			out[i/models] = &ClosedLoopResult{}
		}
		out[i/models].Rows = append(out[i/models].Rows, ClosedLoopRow{
			Model:          r.Model,
			Ticks:          r.Ticks,
			Slowdown:       float64(r.Ticks) / float64(base.Ticks),
			StaticSavings:  rel.StaticSavings,
			DynamicSavings: rel.DynamicSavings,
			OffFraction:    r.OffFraction,
			StalledTicks:   systems[i].Stats().StalledTicks,
		})
	}
	return out, nil
}

// Write renders the table.
func (r *ClosedLoopResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Closed-loop full-system comparison (mcsim multicore workload)")
	fmt.Fprintf(w, "%-10s %10s %10s %12s %12s %10s\n",
		"model", "slowdown", "static-sav", "dyn-sav", "stall-ticks", "off-frac")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %10.3f %9.1f%% %11.1f%% %12d %10.3f\n",
			row.Model, row.Slowdown, 100*row.StaticSavings, 100*row.DynamicSavings,
			row.StalledTicks, row.OffFraction)
	}
}

// ClosedLoopSweepRow aggregates one model across benchmark-derived
// closed-loop workloads.
type ClosedLoopSweepRow struct {
	Model          string
	AvgSlowdown    float64
	AvgStaticSav   float64
	AvgDynamicSav  float64
	AvgOffFraction float64
}

// ClosedLoopSweepResult averages the closed-loop comparison across
// benchmark presets.
type ClosedLoopSweepResult struct {
	Benches []string
	Rows    []ClosedLoopSweepRow
}

// ClosedLoopSweep runs the closed-loop comparison on mcsim configurations
// derived from each named benchmark profile (defaults: the five test
// benchmarks) and averages the outcomes — the closed-loop analogue of the
// §IV-B2 headline protocol. Every model × benchmark run goes to the
// suite's pool at once.
func ClosedLoopSweep(s *core.Suite, benches []string, instructions int64) (*ClosedLoopSweepResult, error) {
	if len(benches) == 0 {
		benches = TestBenchNames()
	}
	if instructions <= 0 {
		instructions = 100_000
	}
	params := make([]mcsim.SystemParams, len(benches))
	for i, bench := range benches {
		var err error
		if params[i], err = mcsim.ParamsForBenchmark(s.Topo, bench, instructions); err != nil {
			return nil, err
		}
	}
	results, err := closedLoops(s, params...)
	if err != nil {
		return nil, err
	}
	out := &ClosedLoopSweepResult{Benches: benches}
	n := float64(len(benches))
	for m, row := range results[0].Rows {
		a := ClosedLoopSweepRow{Model: row.Model}
		for _, res := range results {
			a.AvgSlowdown += res.Rows[m].Slowdown
			a.AvgStaticSav += res.Rows[m].StaticSavings
			a.AvgDynamicSav += res.Rows[m].DynamicSavings
			a.AvgOffFraction += res.Rows[m].OffFraction
		}
		a.AvgSlowdown /= n
		a.AvgStaticSav /= n
		a.AvgDynamicSav /= n
		a.AvgOffFraction /= n
		out.Rows = append(out.Rows, a)
	}
	return out, nil
}

// Write renders the sweep averages.
func (r *ClosedLoopSweepResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Closed-loop sweep averages over %d benchmark presets\n", len(r.Benches))
	fmt.Fprintf(w, "%-10s %10s %12s %12s %10s\n", "model", "slowdown", "static-sav", "dyn-sav", "off-frac")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %10.3f %11.1f%% %11.1f%% %10.3f\n",
			row.Model, row.AvgSlowdown, 100*row.AvgStaticSav, 100*row.AvgDynamicSav, row.AvgOffFraction)
	}
}
