// Package examples holds runnable examples of the simulator's API; `go
// test ./examples` runs them and checks their output.
package examples_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/topology"
)

// Example_quickstart trains DozzNoC's ridge predictor on a small mesh,
// runs the proposed model against the always-on baseline on one
// benchmark, and prints the headline trade-off (static/dynamic energy
// saved vs throughput and latency cost).
func Example_quickstart() {
	// A 4x4 mesh and a short trace keep the whole pipeline (reactive data
	// harvest on 6 training benchmarks, lambda tuning on 3 validation
	// benchmarks, final proactive run) under a few seconds.
	suite := core.NewSuite(topology.NewMesh(4, 4), core.Options{Horizon: 20_000})

	rep, err := suite.Train(core.KindDozzNoC)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained ridge model: lambda=%g, validation MSE=%.3e\n",
		rep.BestVal.Lambda, rep.BestVal.ValMSE)
	fmt.Printf("weights (bias, reqs_sent, reqs_recv, off_time, ibu): %.4f\n", rep.Best.Weights)

	baseline, err := suite.RunBenchmark(core.KindBaseline, "fft", 1)
	if err != nil {
		log.Fatal(err)
	}
	dozznoc, err := suite.RunBenchmark(core.KindDozzNoC, "fft", 1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-22s %14s %14s\n", "metric", "baseline", "DozzNoC")
	fmt.Printf("%-22s %14d %14d\n", "packets delivered", baseline.PacketsDelivered, dozznoc.PacketsDelivered)
	fmt.Printf("%-22s %14.3f %14.3f\n", "throughput (flit/tick)", baseline.Throughput, dozznoc.Throughput)
	fmt.Printf("%-22s %14.1f %14.1f\n", "avg latency (ns)", baseline.AvgLatencyNS, dozznoc.AvgLatencyNS)
	fmt.Printf("%-22s %14.3e %14.3e\n", "static energy (J)", baseline.StaticJ, dozznoc.StaticJ)
	fmt.Printf("%-22s %14.3e %14.3e\n", "dynamic energy (J)", baseline.DynamicJ, dozznoc.DynamicJ)
	fmt.Printf("%-22s %14s %14.1f%%\n", "time power-gated", "-", 100*dozznoc.OffFraction)

	fmt.Printf("\nDozzNoC saved %.1f%% static and %.1f%% dynamic energy for a %.1f%% throughput change.\n",
		100*(1-dozznoc.StaticJ/baseline.StaticJ),
		100*(1-dozznoc.DynamicJ/baseline.DynamicJ),
		100*(dozznoc.Throughput/baseline.Throughput-1))
	// Output:
	// trained ridge model: lambda=0, validation MSE=5.924e-04
	// weights (bias, reqs_sent, reqs_recv, off_time, ibu): [0.0221 0.0070 0.0084 -0.0017 0.0136]
	//
	// metric                       baseline        DozzNoC
	// packets delivered                7000           7000
	// throughput (flit/tick)          1.008          1.004
	// avg latency (ns)                  5.4           19.1
	// static energy (J)           7.710e-06      3.636e-06
	// dynamic energy (J)          4.156e-06      2.534e-06
	// time power-gated                    -           36.0%
	//
	// DozzNoC saved 52.8% static and 39.0% dynamic energy for a -0.5% throughput change.
}
