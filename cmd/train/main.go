// Command train runs the offline ML pipeline of §III-D for one or all
// model kinds: harvest feature/label datasets by running the reactive
// model variants over the 6 training and 3 validation benchmarks, sweep
// the ridge lambda on validation MSE, and write the winning weight vector
// (with its feature scaler) to <model>.weights.json in -out, the directory
// cmd/dozznoc -weightsdir and cmd/experiments' suites load.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/topology"
)

func main() {
	var (
		model   = flag.String("model", "all", strings.Join(core.ShortNames(core.MLKinds), ", ")+" or all")
		outDir  = flag.String("out", ".", "directory for <model>.weights.json files")
		horizon = flag.Int64("horizon", 120_000, "trace generation window in base ticks")
		epoch   = flag.Int64("epoch", 500, "DVFS epoch length in base ticks")
		seed    = flag.Int64("seed", 1, "trace generator seed")
		cmesh   = flag.Bool("cmesh", false, "train on the 4x4 cmesh instead of the 8x8 mesh")
	)
	flag.Parse()

	var topo = topology.NewMesh(8, 8)
	if *cmesh {
		topo = topology.NewCMesh(4, 4)
	}
	suite := core.NewSuite(topo, core.Options{Horizon: *horizon, EpochTicks: *epoch, Seed: *seed})

	kinds, err := parseKinds(*model)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "training %s on %s (harvest 9 traces per model, sweep %d lambdas)...\n",
		*model, topo.Name(), len(suite.Opts.Lambdas))
	if len(kinds) > 1 {
		// One batch: every model's harvests share the suite's pool.
		if err := suite.TrainAll(); err != nil {
			fatal(err)
		}
	}
	for _, kind := range kinds {
		rep, err := suite.Train(kind)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%v: best lambda %g, validation MSE %.4e, train MSE %.4e\n",
			kind, rep.BestVal.Lambda, rep.BestVal.ValMSE, rep.BestVal.TrainMSE)
		fmt.Printf("%v: weights %v\n", kind, rep.Best.Weights)
		for _, p := range rep.Sweep {
			fmt.Printf("  lambda %-8g val MSE %.4e  train MSE %.4e\n", p.Lambda, p.ValMSE, p.TrainMSE)
		}
	}
	if err := suite.SaveTrainedModels(*outDir); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d weights files to %s\n", len(kinds), *outDir)
}

// parseKinds parses -model: "all" or one ML model name.
func parseKinds(s string) ([]core.ModelKind, error) {
	if strings.EqualFold(s, "all") {
		return core.MLKinds, nil
	}
	kind, err := core.ParseKind(s)
	if err != nil {
		return nil, err
	}
	if !kind.IsML() {
		return nil, fmt.Errorf("%v has no trained model", kind)
	}
	return []core.ModelKind{kind}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "train:", err)
	os.Exit(1)
}
