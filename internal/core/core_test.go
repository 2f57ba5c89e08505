package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/flit"
	"repro/internal/ml"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// tinySuite keeps training fast: 4x4 mesh, short horizon.
func tinySuite(t *testing.T) *Suite {
	t.Helper()
	return NewSuite(topology.NewMesh(4, 4), Options{Horizon: 6000, Seed: 3})
}

// TestKindStrings pins, as literals, every name the model table
// derives: the paper name (String), the short name (sweep rows and run
// IDs), the weights-file name, the trained and reactive spec names.
func TestKindStrings(t *testing.T) {
	cases := []struct {
		kind                  ModelKind
		paper, short, weights string
		ml                    bool
		reactive              string
	}{
		{KindBaseline, "Baseline", "baseline", "", false, ""},
		{KindPG, "PG", "pg", "", false, ""},
		{KindLEAD, "DVFS+ML", "lead", "lead.weights.json", true, "DVFS+ML(reactive)"},
		{KindDozzNoC, "DozzNoC", "dozznoc", "dozznoc.weights.json", true, "DozzNoC(reactive)"},
		{KindTurbo, "ML+TURBO", "turbo", "turbo.weights.json", true, "ML+TURBO(reactive)"},
	}
	s := tinySuite(t)
	for i, c := range cases {
		k := c.kind
		if AllKinds[i] != k {
			t.Errorf("AllKinds[%d] = %v, want %v", i, AllKinds[i], k)
		}
		if k.String() != c.paper || k.ShortName() != c.short || k.IsML() != c.ml {
			t.Errorf("%d = %q/%q/ml=%v, want %q/%q/ml=%v", int(k), k.String(), k.ShortName(), k.IsML(), c.paper, c.short, c.ml)
		}
		name, err := WeightsFileName(k)
		if name != c.weights || (err == nil) != c.ml {
			t.Errorf("WeightsFileName(%v) = %q, %v; want %q", k, name, err, c.weights)
		}
		if c.ml {
			s.SetTrainedModel(k, &ml.Ridge{})
			if got := s.reactiveSpec(k).Name; got != c.reactive {
				t.Errorf("reactive spec of %v = %q, want %q", k, got, c.reactive)
			}
		}
		sp, err := s.Spec(k)
		if err != nil || sp.Name != c.paper {
			t.Errorf("Spec(%v) = %q, %v; want %q", k, sp.Name, err, c.paper)
		}
	}
	if !reflect.DeepEqual(MLKinds, []ModelKind{KindLEAD, KindDozzNoC, KindTurbo}) || len(AllKinds) != 5 {
		t.Errorf("kind lists wrong: %v, %v", AllKinds, MLKinds)
	}
	if got := ModelKind(7).String(); got != "ModelKind(7)" {
		t.Errorf("invalid kind String = %q", got)
	}
	if _, err := s.Spec(ModelKind(7)); err == nil || ModelKind(7).IsML() {
		t.Error("invalid kind accepted")
	}
}

// TestParseKind lists every spelling the command-line tools, sweep specs
// and the cosim daemon accept, and the kind each one names.
func TestParseKind(t *testing.T) {
	cases := map[string]ModelKind{
		"baseline":    KindBaseline,
		"Baseline":    KindBaseline,
		"pg":          KindPG,
		"PG":          KindPG,
		"powerpunch":  KindPG,
		"power-gated": KindPG,
		"lead":        KindLEAD,
		"lead-tau":    KindLEAD,
		"LEAD-tau":    KindLEAD,
		"dvfs+ml":     KindLEAD,
		"DVFS+ML":     KindLEAD,
		"dvfsml":      KindLEAD,
		"dozznoc":     KindDozzNoC,
		"DozzNoC":     KindDozzNoC,
		"turbo":       KindTurbo,
		"ml+turbo":    KindTurbo,
		"ML+TURBO":    KindTurbo,
		"mlturbo":     KindTurbo,
		"ml-turbo":    KindTurbo,
	}
	for name, want := range cases {
		got, err := ParseKind(name)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "mystery", "booksim", "dozz", "turbo ", "ml turbo", "kind0", "ModelKind(0)"} {
		if k, err := ParseKind(bad); err == nil {
			t.Errorf("ParseKind(%q) = %v, want an error", bad, k)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.VCs == 0 || o.Depth == 0 || o.Pipeline == 0 || o.EpochTicks == 0 || o.Horizon == 0 || o.Seed == 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	if len(o.Lambdas) == 0 {
		t.Fatal("lambda grid empty")
	}
}

func TestTraceCaching(t *testing.T) {
	s := tinySuite(t)
	a, err := s.Trace("fft")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Trace("fft")
	if a != b {
		t.Fatal("trace not cached")
	}
	if _, err := s.Trace("bogus"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestTraceCompressed(t *testing.T) {
	s := tinySuite(t)
	unc, _ := s.TraceCompressed("fft", 1)
	cmp, err := s.TraceCompressed("fft", 2)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Horizon >= unc.Horizon {
		t.Fatal("compression did not shrink the horizon")
	}
}

func TestSpecWithoutTrainingFails(t *testing.T) {
	s := tinySuite(t)
	if _, err := s.Spec(KindDozzNoC); err == nil {
		t.Fatal("untrained ML spec handed out")
	}
	if _, err := s.Spec(KindBaseline); err != nil {
		t.Fatalf("baseline spec failed: %v", err)
	}
	if _, err := s.Spec(KindPG); err != nil {
		t.Fatalf("PG spec failed: %v", err)
	}
}

func TestBaselineRunWithoutTraining(t *testing.T) {
	s := tinySuite(t)
	res, err := s.RunBenchmark(KindBaseline, "fft", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained || res.PacketsDelivered == 0 {
		t.Fatalf("baseline run broken: %+v", res)
	}
}

func TestDatasetHarvestAndCache(t *testing.T) {
	s := tinySuite(t)
	d, err := s.Dataset(KindDozzNoC, "fft")
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() == 0 {
		t.Fatal("empty harvested dataset")
	}
	d2, _ := s.Dataset(KindDozzNoC, "fft")
	if d != d2 {
		t.Fatal("dataset not cached")
	}
}

func TestTrainAndRunPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("training pipeline in -short mode")
	}
	s := tinySuite(t)
	rep, err := s.Train(KindDozzNoC)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best == nil || len(rep.Best.Weights) != 5 {
		t.Fatalf("trained model = %+v", rep.Best)
	}
	if len(rep.Sweep) == 0 {
		t.Fatal("no lambda sweep recorded")
	}
	// Cached on second call.
	rep2, _ := s.Train(KindDozzNoC)
	if rep != rep2 {
		t.Fatal("training not cached")
	}
	if s.TrainedModel(KindDozzNoC) != rep.Best {
		t.Fatal("TrainedModel mismatch")
	}

	res, err := s.RunBenchmark(KindDozzNoC, "fft", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained || res.PacketsDelivered != res.PacketsInjected {
		t.Fatalf("trained DozzNoC run broken: %+v", res)
	}
}

func TestTrainNonMLFails(t *testing.T) {
	s := tinySuite(t)
	if _, err := s.Train(KindBaseline); err == nil {
		t.Fatal("training the baseline should fail")
	}
}

func TestSetTrainedModel(t *testing.T) {
	s := tinySuite(t)
	m := &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}} // predict = current IBU
	s.SetTrainedModel(KindLEAD, m)
	res, err := s.RunBenchmark(KindLEAD, "fft", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained {
		t.Fatal("run with injected model failed")
	}
}

func TestCompareAndRelatives(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison in -short mode")
	}
	s := tinySuite(t)
	for _, k := range MLKinds {
		s.SetTrainedModel(k, &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}})
	}
	cmp, err := s.Compare("fft", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Results) != 5 {
		t.Fatalf("compared %d models", len(cmp.Results))
	}
	rels := cmp.Relatives()
	if len(rels) != 5 {
		t.Fatalf("%d relatives", len(rels))
	}
	for _, r := range rels {
		if r.Kind == KindBaseline {
			if r.ThroughputRatio != 1 || r.StaticNorm != 1 || r.DynamicNorm != 1 {
				t.Fatalf("baseline relative to itself = %+v", r)
			}
		}
		if r.Kind == KindPG && r.StaticSavings <= 0 {
			t.Error("PG should save static energy")
		}
		if r.Kind == KindDozzNoC && (r.StaticSavings <= 0 || r.DynamicSavings <= 0) {
			t.Error("DozzNoC should save both")
		}
	}
}

func TestMergedDatasetSplitSizes(t *testing.T) {
	s := tinySuite(t)
	val, err := s.MergedDataset(KindLEAD, traffic.Validation)
	if err != nil {
		t.Fatal(err)
	}
	one, _ := s.Dataset(KindLEAD, "freqmine")
	if val.Len() <= one.Len() {
		t.Fatal("merged validation set should cover 3 traces")
	}
}

func TestRelativeEDP(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison in -short mode")
	}
	s := tinySuite(t)
	for _, k := range MLKinds {
		s.SetTrainedModel(k, &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}})
	}
	cmp, err := s.Compare("lu", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range cmp.Relatives() {
		if rel.Kind == KindBaseline && rel.EDPNorm != 1 {
			t.Fatalf("baseline EDP norm = %g", rel.EDPNorm)
		}
		if rel.Kind == KindDozzNoC && rel.EDPNorm >= 1 {
			t.Errorf("DozzNoC EDP norm %g should beat the baseline on a sparse bench", rel.EDPNorm)
		}
	}
}

// TestCompareParallelMatchesSequential is the pool's reference oracle:
// every result of the pooled Compare deeply equals a direct, sequential
// RunBenchmark of the same kind, once the scheduling diagnostics are
// zeroed (a pooled run sweeps serially under auto sharding, a direct one
// may shard).
func TestCompareParallelMatchesSequential(t *testing.T) {
	s := NewSuite(topology.NewMesh(4, 4), Options{Horizon: 4000, Seed: 3})
	for _, k := range MLKinds {
		s.SetTrainedModel(k, &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}})
	}
	cmp, err := s.Compare("fft", 2)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Bench != "fft" || cmp.Factor != 2 || len(cmp.Results) != len(AllKinds) {
		t.Fatalf("comparison %s x%d has %d results", cmp.Bench, cmp.Factor, len(cmp.Results))
	}
	for _, k := range AllKinds {
		want, err := s.RunBenchmark(k, "fft", 2)
		if err != nil {
			t.Fatal(err)
		}
		got := cmp.Results[k]
		zeroDiagnostics(want)
		zeroDiagnostics(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: pooled result differs from RunBenchmark:\npool:   %+v\ndirect: %+v", k, got, want)
		}
	}
}

// bandedTrace keeps the top two and bottom two router rows exchanging
// row-local traffic while every other row stays silent, so every shard
// boundary margin stays inert and a sharded run sweeps concurrently on
// nearly every tick.
func bandedTrace(topo topology.Topology, horizon int64) *traffic.Trace {
	width, rows := topo.Width(), topo.Height()
	band := func(row0 int) []int {
		var cores []int
		for row := row0; row < row0+2; row++ {
			for x := 0; x < width; x++ {
				cores = append(cores, topo.CoreAt(topo.RouterAt(x, row), 0))
			}
		}
		return cores
	}
	top, bottom := band(0), band(rows-2)
	tr := &traffic.Trace{Name: "banded", Cores: topo.NumCores(), Horizon: horizon}
	for t, i := int64(0), 0; t < horizon; t, i = t+2, i+1 {
		tr.Entries = append(tr.Entries,
			traffic.Entry{Time: t, Src: top[i%len(top)], Dst: top[(i+3)%len(top)], Kind: flit.Request},
			traffic.Entry{Time: t, Src: bottom[i%len(bottom)], Dst: bottom[(i+5)%len(bottom)], Kind: flit.Request})
	}
	return tr
}

// TestParallelOptionMatchesSequential pins that the pool's width is
// purely a scheduling choice: Compare on a pool GOMAXPROCS runs wide
// deeply equals Compare on a one-run-wide pool (GOMAXPROCS 1, which also
// makes every run sweep serially), once the scheduling diagnostics are
// zeroed.
func TestParallelOptionMatchesSequential(t *testing.T) {
	compare := func() *Comparison {
		s := NewSuite(topology.NewMesh(4, 4), Options{Horizon: 4000, Seed: 3})
		for _, k := range MLKinds {
			s.SetTrainedModel(k, &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}})
		}
		c, err := s.Compare("fft", 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range c.Results {
			zeroDiagnostics(r)
		}
		return c
	}
	par := compare()
	prev := runtime.GOMAXPROCS(1)
	seq := compare()
	runtime.GOMAXPROCS(prev)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("pooled comparison differs from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// zeroDiagnostics clears the Result fields that describe how a run was
// scheduled rather than what it computed.
func zeroDiagnostics(r *sim.Result) {
	r.FastForwardedTicks = 0
	r.HorizonSkippedTicks = 0
	r.LazySkippedRouterTicks = 0
	r.ParallelTicks = 0
	r.ParallelLandings = 0
	r.ShardLoad = nil
	r.ShardLoadImbalance = 0
	r.ShardResplits = 0
}

// TestCompareParallelRunsUnsharded checks that the suite's pool does not
// nest intra-run sharding under auto sizing: on banded traffic where a
// sharded sweep engages on nearly every tick, every pooled run — Compare's
// five, and a Fig7-shaped batch of ML kinds over several benchmarks —
// must sweep serially, and still match a direct RunBenchmark exactly.
func TestCompareParallelRunsUnsharded(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel comparison in -short mode")
	}
	topo := topology.NewMesh(8, 16)
	s := NewSuite(topo, Options{Horizon: 8000, Seed: 3, ShardMinActive: -1})
	tr := bandedTrace(topo, 8000)
	benches := []string{"banded", "banded2"}
	for _, b := range benches {
		s.PutTrace(b, tr)
	}
	for _, k := range MLKinds {
		s.SetTrainedModel(k, &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}})
	}
	direct := make(map[ModelKind]*sim.Result)
	autoSharded := min(runtime.GOMAXPROCS(0), runtime.NumCPU()) > 1
	for _, k := range AllKinds {
		res, err := s.RunBenchmark(k, "banded", 1)
		if err != nil {
			t.Fatal(err)
		}
		if autoSharded && res.ParallelTicks == 0 {
			t.Errorf("%v: the direct run never swept concurrently; the check below would be vacuous", k)
		}
		zeroDiagnostics(res)
		direct[k] = res
	}
	check := func(what string, k ModelKind, res *sim.Result) {
		t.Helper()
		if res.ParallelTicks != 0 {
			t.Errorf("%s %v: pooled run swept %d ticks concurrently", what, k, res.ParallelTicks)
		}
		zeroDiagnostics(res)
		if !reflect.DeepEqual(res, direct[k]) {
			t.Errorf("%s %v: pooled result differs from the direct one", what, k)
		}
	}
	cmp, err := s.Compare("banded", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range AllKinds {
		check("Compare", k, cmp.Results[k])
	}
	var runs []Run
	for _, k := range MLKinds {
		for _, b := range benches {
			runs = append(runs, Run{Kind: k, Bench: b, Factor: 1})
		}
	}
	results, err := s.RunBenchmarks(runs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		check("RunBenchmarks "+r.Bench, r.Kind, results[i])
	}
}

func TestHarvestParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel harvest in -short mode")
	}
	s := tinySuite(t)
	if err := s.HarvestParallel([]ModelKind{KindDozzNoC, KindLEAD}, []string{"fft", "lu"}); err != nil {
		t.Fatal(err)
	}
	// The caches are now warm; Dataset returns without simulating.
	d, err := s.Dataset(KindDozzNoC, "fft")
	if err != nil || d.Len() == 0 {
		t.Fatalf("cache miss after parallel harvest: %v", err)
	}
	// And the parallel-harvested dataset matches a fresh sequential one.
	s2 := tinySuite(t)
	d2, err := s2.Dataset(KindDozzNoC, "fft")
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != d2.Len() {
		t.Fatalf("parallel harvest diverged: %d vs %d rows", d.Len(), d2.Len())
	}
}

func TestTrainAllParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel training in -short mode")
	}
	s := tinySuite(t)
	if err := s.TrainAll(); err != nil {
		t.Fatal(err)
	}
	for _, k := range MLKinds {
		if s.TrainedModel(k) == nil {
			t.Fatalf("%v not trained", k)
		}
	}
}

func TestSaveLoadTrainedModels(t *testing.T) {
	s := tinySuite(t)
	for _, k := range MLKinds {
		s.SetTrainedModel(k, &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}, Lambda: float64(k)})
	}
	dir := t.TempDir()
	if err := s.SaveTrainedModels(dir); err != nil {
		t.Fatal(err)
	}
	s2 := tinySuite(t)
	n, err := s2.LoadTrainedModels(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("loaded %d models, want 3", n)
	}
	for _, k := range MLKinds {
		if s2.TrainedModel(k) == nil {
			t.Fatalf("%v missing after load", k)
		}
	}
	// Empty dir loads nothing without error.
	n, err = tinySuite(t).LoadTrainedModels(t.TempDir())
	if err != nil || n != 0 {
		t.Fatalf("empty dir load = %d, %v", n, err)
	}
	if _, err := WeightsFileName(KindBaseline); err == nil {
		t.Error("baseline weights file name should error")
	}
}
