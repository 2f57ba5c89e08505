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

func TestKindStrings(t *testing.T) {
	want := map[ModelKind]string{
		KindBaseline: "Baseline",
		KindPG:       "PG",
		KindLEAD:     "DVFS+ML",
		KindDozzNoC:  "DozzNoC",
		KindTurbo:    "ML+TURBO",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d = %q, want %q", int(k), k.String(), s)
		}
	}
	if !KindDozzNoC.IsML() || KindPG.IsML() || KindBaseline.IsML() {
		t.Error("IsML wrong")
	}
	if len(AllKinds) != 5 || len(MLKinds) != 3 {
		t.Error("kind lists wrong")
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

func TestCompareParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel comparison in -short mode")
	}
	s := tinySuite(t)
	for _, k := range MLKinds {
		s.SetTrainedModel(k, &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}})
	}
	seq, err := s.Compare("fft", 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := s.CompareParallel("fft", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range AllKinds {
		a, b := seq.Results[k], par.Results[k]
		if a.Ticks != b.Ticks || a.StaticJ != b.StaticJ || a.DynamicJ != b.DynamicJ ||
			a.PacketsDelivered != b.PacketsDelivered {
			t.Fatalf("%v: parallel result diverged (%d vs %d ticks)", k, a.Ticks, b.Ticks)
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

// TestCompareParallelRunsUnsharded checks that the across-run pool does
// not nest intra-run sharding under auto sizing: on banded traffic where
// a sharded sweep engages on nearly every tick, every pooled run must
// sweep serially, and still match the sequential Compare exactly.
func TestCompareParallelRunsUnsharded(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel comparison in -short mode")
	}
	topo := topology.NewMesh(8, 16)
	s := NewSuite(topo, Options{Horizon: 8000, Seed: 3, ShardMinActive: -1})
	s.PutTrace("banded", bandedTrace(topo, 8000))
	for _, k := range MLKinds {
		s.SetTrainedModel(k, &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}})
	}
	seq, err := s.Compare("banded", 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := s.CompareParallel("banded", 1)
	if err != nil {
		t.Fatal(err)
	}
	autoSharded := min(runtime.GOMAXPROCS(0), runtime.NumCPU()) > 1
	for _, k := range AllKinds {
		a, b := seq.Results[k], par.Results[k]
		if autoSharded && a.ParallelTicks == 0 {
			t.Errorf("%v: the sequential run never swept concurrently; the check below would be vacuous", k)
		}
		if b.ParallelTicks != 0 {
			t.Errorf("%v: pooled run swept %d ticks concurrently", k, b.ParallelTicks)
		}
		zeroDiagnostics(a)
		zeroDiagnostics(b)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: pooled result differs from the sequential one", k)
		}
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
	if err := s.TrainAllParallel(); err != nil {
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
