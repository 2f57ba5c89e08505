package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {1000000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		// The chosen percentile leaves at least ten samples beyond it,
		// unless it is the median fallback.
		if p := tailPercentile(c.n); p > 50 && float64(c.n)*(100-p)/100 < 10 {
			t.Errorf("tailPercentile(%d) = %g leaves fewer than 10 samples beyond it", c.n, p)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("percentile(50) = %g, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("percentile(100) = %g, want 5", got)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the printed metric sets and the
// repository's BENCHMARK.json in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program prints %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: program %s (%s), BENCHMARK.json %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", e2eNames, spec.EndToEnd)
	same("per_layer", layerNames, spec.PerLayer)
	for _, w := range spec.Work {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(spec.Work) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Work), len(workloads))
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	ss := []span{{start: 10, end: 20}, {start: 0, end: 5}, {start: 15, end: 30}, {start: 30, end: 31}}
	if got := covered(ss); got != 5+21 {
		t.Fatalf("covered = %d, want 26", got)
	}
}

func TestDigestCheckTripsOnOneByteChange(t *testing.T) {
	data := []byte(`{"id":"mesh8x8/fft/dozznoc/seed1/ep500/c1/ph-1/ltuned","ticks":30512}` + "\n")
	pinned := sha256Hex(data)
	if err := checkDigest("results file", sha256Hex(data), pinned); err != nil {
		t.Fatalf("unchanged bytes: %v", err)
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 1
		if err := checkDigest("results file", sha256Hex(mut), pinned); err == nil {
			t.Fatalf("flipping byte %d went unnoticed", i)
		}
	}
}

// TestDecoratorsKeepPredictionQuality checks that a selector built around
// the timing decorator still exposes policy.IBUPredictor, and that a run
// through the decorators is identical to the undecorated run — including
// the prediction-quality fields only an IBUPredictor can populate.
func TestDecoratorsKeepPredictionQuality(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	s := core.NewSuite(topo, core.Options{Horizon: 4000, Shards: 1})
	tr, err := s.Trace("fft")
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder("test")
	for _, k := range core.MLKinds {
		if _, err := s.Train(k); err != nil {
			t.Fatal(err)
		}
		pred := &timedPredictor{inner: s.TrainedModel(k), rec: rec, parent: -1}
		spec := mlSpec(k, pred, topo.NumRouters())
		if _, ok := spec.Selector.(policy.IBUPredictor); !ok {
			t.Fatalf("%v: decorated selector %T does not implement policy.IBUPredictor", k, spec.Selector)
		}
		plain, err := s.Spec(k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(simConfig(s, plain, tr, obs.New()))
		if err != nil {
			t.Fatal(err)
		}
		ext := &timedExtractor{inner: features.NewExtractor(topo), rec: rec, parent: -1}
		cfg := simConfig(s, spec, tr, obs.New())
		cfg.Extractor = ext
		got, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pred.stats.calls == 0 || ext.stats.calls == 0 {
			t.Fatalf("%v: decorators saw %d predictions, %d feature collections", k, pred.stats.calls, ext.stats.calls)
		}
		if want.MeanAbsPredErr == 0 {
			t.Fatalf("%v: undecorated run has no prediction-quality fields", k)
		}
		if got.MeanAbsPredErr != want.MeanAbsPredErr || got.UnderPredDecisions != want.UnderPredDecisions ||
			got.OverPredDecisions != want.OverPredDecisions || got.UnderPredStallTicks != want.UnderPredStallTicks ||
			got.OverPredStaticWasteJ != want.OverPredStaticWasteJ || got.PredDriftEvents != want.PredDriftEvents {
			t.Fatalf("%v: prediction-quality fields differ: got %+v, want %+v", k, got, want)
		}
		gd, _ := resultDigest(got)
		wd, _ := resultDigest(want)
		if gd != wd {
			t.Fatalf("%v: decorated result digest %s, undecorated %s", k, gd, wd)
		}
	}
}

// TestSmoke runs every workload at a tiny size with the traced pass on,
// so the untraced/traced digest comparisons, the invariants and the
// engagement assertions all execute.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			if name == "bigmesh-banded" && runtime.GOMAXPROCS(0) < 2 {
				t.Skip("the sharded sweep needs two CPUs to engage")
			}
			p := params{seed: 3, budget: time.Second, trace: true, shrink: 5, outDir: t.TempDir()}
			res, err := workloads[name](p)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || len(res.problems) != 0 || res.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.attempted, res.failed, res.problems)
			}
			for _, m := range fill(e2eNames, res.e2e) {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, m.Value)
				}
			}
			if len(res.layer) == 0 || res.rec == nil || len(res.rec.spans) == 0 {
				t.Fatalf("traced pass recorded %d layer metrics", len(res.layer))
			}
		})
	}
}
