package examples_test

import (
	"fmt"
	"log"

	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// hysteresisSelector moves at most one mode step per epoch toward the
// threshold-mapped target.
type hysteresisSelector struct {
	last []power.Mode
}

func newHysteresis(routers int) *hysteresisSelector {
	s := &hysteresisSelector{last: make([]power.Mode, routers)}
	for i := range s.last {
		s.last[i] = power.MaxActive
	}
	return s
}

func (s *hysteresisSelector) Name() string { return "hysteresis" }

func (s *hysteresisSelector) SelectMode(router int, ibu float64, _ []float64) power.Mode {
	target := policy.ModeForIBU(ibu)
	cur := s.last[router]
	switch {
	case target > cur:
		cur++
	case target < cur:
		cur--
	}
	s.last[router] = cur
	return cur
}

// emaSelector thresholds an exponential moving average of the IBU, a
// cheap stand-in for the trained predictor.
type emaSelector struct {
	alpha float64
	ema   []float64
}

func newEMA(routers int, alpha float64) *emaSelector {
	return &emaSelector{alpha: alpha, ema: make([]float64, routers)}
}

func (s *emaSelector) Name() string { return "ema" }

func (s *emaSelector) SelectMode(router int, ibu float64, _ []float64) power.Mode {
	s.ema[router] = s.alpha*ibu + (1-s.alpha)*s.ema[router]
	return policy.ModeForIBU(s.ema[router])
}

// Example_customPolicy plugs user-defined mode selectors into the
// simulation engine. The engine accepts any policy.ModeSelector, so new
// DVFS strategies compare against the paper's models without touching the
// simulator. Two custom selectors run next to the paper's baseline and
// reactive DozzNoC:
//
//   - hysteresis: the paper's threshold map, but a router only moves one
//     mode step per epoch (damped switching);
//   - EMA: an exponential moving average of IBU instead of a trained
//     predictor.
func Example_customPolicy() {
	topo := topology.NewMesh(4, 4)
	p, _ := traffic.ProfileByName("fft")
	g := traffic.Generator{Topo: topo, Horizon: 30_000, Seed: 1}
	trace := g.Generate(p)

	specs := []policy.Spec{
		policy.Baseline(),
		policy.DozzNoC(policy.ReactiveSelector{}),
		{Name: "DozzNoC+hysteresis", PowerGating: true, Selector: newHysteresis(topo.NumRouters())},
		{Name: "DozzNoC+ema", PowerGating: true, Selector: newEMA(topo.NumRouters(), 0.4)},
	}

	fmt.Printf("%-20s %12s %12s %12s %10s\n", "model", "static(J)", "dynamic(J)", "latency(ns)", "off-frac")
	for _, spec := range specs {
		res, err := sim.Run(sim.Config{Topo: topo, Spec: spec, Trace: trace})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s %12.3e %12.3e %12.1f %10.3f\n",
			res.Model, res.StaticJ, res.DynamicJ, res.AvgLatencyNS, res.OffFraction)
	}
	fmt.Println("\nAny policy.ModeSelector drops into sim.Config the same way.")
	// Output:
	// model                   static(J)   dynamic(J)  latency(ns)   off-frac
	// Baseline                1.154e-05    6.232e-06          5.4      0.000
	// DozzNoC                 5.511e-06    3.942e-06         17.5      0.360
	// DozzNoC+hysteresis      5.514e-06    3.964e-06         17.4      0.366
	// DozzNoC+ema             5.442e-06    3.820e-06         21.1      0.376
	//
	// Any policy.ModeSelector drops into sim.Config the same way.
}
