// Package core is the top-level DozzNoC API: it wires the traffic
// generator, the offline ML training pipeline and the simulation engine
// into the paper's experimental protocol, so a caller can reproduce any
// evaluation result in a few lines:
//
//	suite := core.NewSuite(topology.NewMesh(8, 8), core.Options{})
//	if err := suite.TrainAll(); err != nil { ... }
//	res, err := suite.RunBenchmark(core.KindDozzNoC, "fft", 1)
//
// The suite caches generated traces, reactive-run datasets and trained
// models, so repeated experiment functions share work. Every simulation
// it runs is built by Config; jobs made of many independent simulations
// (Train, TrainAll, HarvestParallel, Compare, RunBenchmarks, RunConfigs)
// run them on the suite's pool.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ModelKind identifies one of the five compared models.
type ModelKind int

const (
	// KindBaseline is always-on, always-M7.
	KindBaseline ModelKind = iota
	// KindPG is the Power-Punch-like power-gated model (active = M7).
	KindPG
	// KindLEAD is LEAD-tau: ML-driven DVFS, no power-gating.
	KindLEAD
	// KindDozzNoC is the proposed ML+PG+DVFS model.
	KindDozzNoC
	// KindTurbo is ML+TURBO.
	KindTurbo

	numKinds
)

// AllKinds lists the models in the paper's comparison order.
var AllKinds = []ModelKind{KindBaseline, KindPG, KindLEAD, KindDozzNoC, KindTurbo}

// MLKinds lists the three models that carry a trained predictor.
var MLKinds = []ModelKind{KindLEAD, KindDozzNoC, KindTurbo}

// String names a model kind as the paper does.
func (k ModelKind) String() string {
	switch k {
	case KindBaseline:
		return "Baseline"
	case KindPG:
		return "PG"
	case KindLEAD:
		return "DVFS+ML"
	case KindDozzNoC:
		return "DozzNoC"
	case KindTurbo:
		return "ML+TURBO"
	}
	return fmt.Sprintf("ModelKind(%d)", int(k))
}

// IsML reports whether the kind uses a trained predictor.
func (k ModelKind) IsML() bool {
	return k == KindLEAD || k == KindDozzNoC || k == KindTurbo
}

// Options tune the suite; zero values select the paper's configuration.
type Options struct {
	VCs        int   // per-port virtual channels (default 2)
	Depth      int   // flits per VC (default 4)
	Pipeline   int   // router pipeline depth (default 3)
	LinkTicks  int64 // inter-router wire latency in base ticks (default 0)
	EpochTicks int64 // DVFS epoch in base ticks (default 500)
	Horizon    int64 // trace generation window in ticks (default 120000)
	Seed       int64 // trace generator seed (default 1)
	Lambdas    []float64

	// Shards is the per-simulation tick-engine shard count (sim.Config
	// Shards): 0 auto-sizes to min(GOMAXPROCS, NumCPU, mesh rows) —
	// serial on a single-CPU host — and 1 forces the serial sweep.
	// Simulations on the suite's pool resolve 0 to 1 instead whenever the
	// pool runs more than one at a time (see Suite.pool). Bit-identical
	// results for any value.
	Shards int

	// ShardMinActive is the sharded engine's serial-fallback threshold
	// (sim.Config.ShardMinActive): 0 selects sim.DefaultShardMinActive,
	// positive values pin it, and negative values make every quiet-margin
	// tick attempt the concurrent sweep. Scheduling-only; results are
	// bit-identical for any value.
	ShardMinActive int

	// PunchHops and NoPathPunch forward the injection-time wake-punch
	// knobs (sim.Config fields of the same names) into every simulation
	// the suite runs, including the reactive data harvests, so a trained
	// model sees the same punching regime it will be evaluated under.
	// PunchHops 0 keeps the paper default (punch the whole XY path).
	PunchHops   int
	NoPathPunch bool

	// Obs attaches the observability layer (sim.Config.Obs) to every
	// simulation the suite runs, reactive harvests included. A Metrics
	// binds to one run at a time, so with Obs set the suite's pool runs
	// one simulation at a time; a caller that drives one suite from
	// several goroutines leaves it nil and passes per-run observers to
	// RunTraceObs instead.
	Obs *obs.Observer
}

func (o Options) withDefaults() Options {
	if o.VCs == 0 {
		o.VCs = sim.DefaultVCs
	}
	if o.Depth == 0 {
		o.Depth = sim.DefaultDepth
	}
	if o.Pipeline == 0 {
		o.Pipeline = sim.DefaultPipeline
	}
	if o.EpochTicks == 0 {
		o.EpochTicks = sim.DefaultEpochTicks
	}
	if o.Horizon == 0 {
		o.Horizon = 120_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Lambdas) == 0 {
		o.Lambdas = ml.DefaultLambdas
	}
	return o
}

type datasetKey struct {
	kind  ModelKind
	trace string
}

// Flight is a cache entry whose value may still be being computed. The
// goroutine that inserts it (under its cache's lock) does the work
// without holding the lock and publishes the outcome with Finish; every
// other caller waits in Wait. A failed entry leaves its map before
// Finish, so waiters get the error but errors are never cached. The
// sweep runner's job-wide trace cache uses the same entry.
type Flight[T any] struct {
	done chan struct{}
	v    T
	err  error
}

// NewFlight returns an unfinished entry.
func NewFlight[T any]() *Flight[T] { return &Flight[T]{done: make(chan struct{})} }

// Finish publishes the entry's outcome and releases its waiters. It must
// be called exactly once, by the goroutine that inserted the entry.
func (f *Flight[T]) Finish(v T, err error) {
	f.v, f.err = v, err
	close(f.done)
}

// Wait blocks until the entry is finished and returns its outcome.
func (f *Flight[T]) Wait() (T, error) {
	<-f.done
	return f.v, f.err
}

// Suite orchestrates the full experimental protocol on one topology.
// Its caches are guarded, so its methods may be used from multiple
// goroutines; each simulation is deterministic. A trace is generated, and
// a reactive dataset harvested, at most once however many goroutines ask
// for it at the same time.
type Suite struct {
	Topo topology.Topology
	Opts Options

	mu       sync.Mutex
	traces   map[string]*Flight[*traffic.Trace]
	datasets map[datasetKey]*Flight[*ml.Dataset]
	trained  map[ModelKind]*ml.TrainReport
	harvests int // reactive harvest simulations started
}

// NewSuite builds a suite.
func NewSuite(topo topology.Topology, opts Options) *Suite {
	return &Suite{
		Topo:     topo,
		Opts:     opts.withDefaults(),
		traces:   make(map[string]*Flight[*traffic.Trace]),
		datasets: make(map[datasetKey]*Flight[*ml.Dataset]),
		trained:  make(map[ModelKind]*ml.TrainReport),
	}
}

// Trace returns the (cached) uncompressed trace for a benchmark profile.
// Concurrent first calls for one name generate it once: the others wait
// for the generating goroutine.
func (s *Suite) Trace(name string) (*traffic.Trace, error) {
	s.mu.Lock()
	f, ok := s.traces[name]
	if ok {
		s.mu.Unlock()
		return f.Wait()
	}
	p, ok := traffic.ProfileByName(name)
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: unknown benchmark %q", name)
	}
	f = NewFlight[*traffic.Trace]()
	s.traces[name] = f
	s.mu.Unlock()
	g := traffic.Generator{Topo: s.Topo, Horizon: s.Opts.Horizon, Seed: s.Opts.Seed}
	t := g.Generate(p)
	f.Finish(t, nil)
	return t, nil
}

// PutTrace installs a pre-generated trace under a benchmark name, so
// that many suites sharing one (topology, horizon, seed) configuration
// can reuse a single immutable trace instead of regenerating it — traces
// are read-only during simulation, and runs are deterministic, so the
// sharing is free. The caller certifies the trace was generated with
// this suite's topology, horizon and seed; a trace already cached under
// the name, or being generated under it, is kept (first writer wins).
func (s *Suite) PutTrace(name string, t *traffic.Trace) {
	s.mu.Lock()
	if _, ok := s.traces[name]; !ok {
		f := NewFlight[*traffic.Trace]()
		f.Finish(t, nil)
		s.traces[name] = f
	}
	s.mu.Unlock()
}

// TraceCompressed returns the benchmark trace compressed by factor
// (factor 1 returns the uncompressed trace).
func (s *Suite) TraceCompressed(name string, factor int64) (*traffic.Trace, error) {
	t, err := s.Trace(name)
	if err != nil {
		return nil, err
	}
	if factor <= 1 {
		return t, nil
	}
	return t.Compress(factor), nil
}

// reactiveSpec returns the reactive (data-harvesting) variant of an ML
// model kind: identical structure, but mode selection thresholds the
// *current* IBU instead of a prediction (§III-D "Label").
func (s *Suite) reactiveSpec(kind ModelKind) policy.Spec {
	switch kind {
	case KindLEAD:
		sp := policy.DVFSML(policy.ReactiveSelector{})
		sp.Name = "DVFS+ML(reactive)"
		return sp
	case KindDozzNoC:
		sp := policy.DozzNoC(policy.ReactiveSelector{})
		sp.Name = "DozzNoC(reactive)"
		return sp
	case KindTurbo:
		sp := policy.MLTurbo(policy.ReactiveSelector{}, s.Topo.NumRouters())
		sp.Name = "ML+TURBO(reactive)"
		return sp
	}
	panic(fmt.Sprintf("core: reactiveSpec of non-ML kind %v", kind))
}

// Spec returns the runnable policy spec for a kind. ML kinds require a
// prior TrainAll/Train call.
func (s *Suite) Spec(kind ModelKind) (policy.Spec, error) {
	switch kind {
	case KindBaseline:
		return policy.Baseline(), nil
	case KindPG:
		return policy.PowerGated(), nil
	}
	rep := s.report(kind)
	if rep == nil {
		return policy.Spec{}, fmt.Errorf("core: model %v is not trained; call Train first", kind)
	}
	sel := policy.ProactiveSelector{Model: rep.Best, ModelName: kind.String()}
	switch kind {
	case KindLEAD:
		return policy.DVFSML(sel), nil
	case KindDozzNoC:
		return policy.DozzNoC(sel), nil
	case KindTurbo:
		return policy.MLTurbo(sel, s.Topo.NumRouters()), nil
	}
	return policy.Spec{}, fmt.Errorf("core: unknown model kind %v", kind)
}

// Dataset returns the (cached) feature/label dataset harvested by running
// the reactive variant of kind over the named benchmark trace. If another
// goroutine is already harvesting it, Dataset waits for that harvest.
func (s *Suite) Dataset(kind ModelKind, trace string) (*ml.Dataset, error) {
	return s.dataset(datasetKey{kind, trace}, s.Opts.Shards)
}

// dataset returns key's dataset: it claims the harvest, which then sweeps
// with the given shard count, or waits for the goroutine that claimed it
// first. A harvest runs without holding s.mu and never waits on another
// harvest, so waiting on an in-flight one cannot deadlock.
func (s *Suite) dataset(key datasetKey, shards int) (*ml.Dataset, error) {
	s.mu.Lock()
	f, ok := s.datasets[key]
	if !ok {
		f = NewFlight[*ml.Dataset]()
		s.datasets[key] = f
		s.harvests++
	}
	s.mu.Unlock()
	if ok {
		return f.Wait()
	}
	d, err := s.harvest(key, shards)
	if err != nil {
		s.mu.Lock()
		delete(s.datasets, key)
		s.mu.Unlock()
	}
	f.Finish(d, err)
	return d, err
}

// harvest runs the reactive variant of key.kind over key.trace with the
// given shard count and returns the dataset it collected.
func (s *Suite) harvest(key datasetKey, shards int) (*ml.Dataset, error) {
	t, err := s.Trace(key.trace)
	if err != nil {
		return nil, err
	}
	cfg := s.Config(s.reactiveSpec(key.kind), t)
	cfg.Shards = shards
	cfg.CollectDataset = true
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: harvesting %v on %s: %w", key.kind, key.trace, err)
	}
	return res.Dataset, nil
}

// MergedDataset concatenates the reactive datasets of kind over a trace
// split (the per-split training/validation/test corpora of §III-D).
func (s *Suite) MergedDataset(kind ModelKind, split traffic.Split) (*ml.Dataset, error) {
	out := ml.NewDataset(nil)
	for _, p := range traffic.ProfilesBySplit(split) {
		d, err := s.Dataset(kind, p.Name)
		if err != nil {
			return nil, err
		}
		out.Merge(d)
	}
	return out, nil
}

// trainingTraces names the 6 training and 3 validation traces, in the
// order Train merges them.
func trainingTraces() []string {
	var names []string
	for _, split := range []traffic.Split{traffic.Train, traffic.Validation} {
		for _, p := range traffic.ProfilesBySplit(split) {
			names = append(names, p.Name)
		}
	}
	return names
}

// Train runs the offline pipeline for one ML kind: harvest reactive
// datasets over the 6 training and 3 validation traces on the suite's
// pool, then sweep lambda and keep the best validation model. The report
// is cached, and a kind already trained or installed (SetTrainedModel)
// returns it without harvesting. Concurrent calls share the harvests:
// each one is run by whichever caller claims it first.
func (s *Suite) Train(kind ModelKind) (*ml.TrainReport, error) {
	if rep := s.report(kind); rep != nil {
		return rep, nil
	}
	if !kind.IsML() {
		return nil, fmt.Errorf("core: %v has no trained model", kind)
	}
	if err := s.HarvestParallel([]ModelKind{kind}, trainingTraces()); err != nil {
		return nil, err
	}
	train, err := s.MergedDataset(kind, traffic.Train)
	if err != nil {
		return nil, err
	}
	val, err := s.MergedDataset(kind, traffic.Validation)
	if err != nil {
		return nil, err
	}
	rep, err := ml.TuneLambda(train, val, s.Opts.Lambdas)
	if err != nil {
		return nil, fmt.Errorf("core: training %v: %w", kind, err)
	}
	s.mu.Lock()
	if prev, ok := s.trained[kind]; ok {
		rep = prev
	} else {
		s.trained[kind] = rep
	}
	s.mu.Unlock()
	return rep, nil
}

// TrainAll trains every ML model not yet trained or installed: it
// harvests their training and validation datasets on the suite's pool in
// one batch, then runs the (fast) lambda sweeps. On a suite whose three
// models are all in place it does nothing.
func (s *Suite) TrainAll() error {
	var untrained []ModelKind
	for _, k := range MLKinds {
		if s.report(k) == nil {
			untrained = append(untrained, k)
		}
	}
	if err := s.HarvestParallel(untrained, trainingTraces()); err != nil {
		return err
	}
	for _, k := range untrained {
		if _, err := s.Train(k); err != nil {
			return err
		}
	}
	return nil
}

// report returns kind's cached training report, or nil.
func (s *Suite) report(kind ModelKind) *ml.TrainReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trained[kind]
}

// TrainedModel returns the best trained ridge model of a kind (nil if the
// kind is not ML or not yet trained).
func (s *Suite) TrainedModel(kind ModelKind) *ml.Ridge {
	if rep := s.report(kind); rep != nil {
		return rep.Best
	}
	return nil
}

// SetTrainedModel installs an externally trained model (e.g. loaded from
// a weights file written by cmd/train).
func (s *Suite) SetTrainedModel(kind ModelKind, m *ml.Ridge) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trained[kind] = &ml.TrainReport{Best: m}
}

// RunTraceObs runs one model kind over an explicit trace with an
// explicit per-run observer (which may be nil). Unlike the suite-wide
// Options.Obs — which binds one obs.Metrics to every run and therefore
// cannot serve overlapping runs — a per-run observer lets a worker pool
// attach one Metrics per worker, which is how the sweep orchestrator
// captures epoch folds for concurrent runs of one suite.
func (s *Suite) RunTraceObs(kind ModelKind, t *traffic.Trace, o *obs.Observer) (*sim.Result, error) {
	spec, err := s.Spec(kind)
	if err != nil {
		return nil, err
	}
	cfg := s.Config(spec, t)
	cfg.Obs = o
	return sim.Run(cfg)
}

// Config is the sim.Config of every simulation the suite runs: spec over
// t (nil for a closed-loop run, whose caller sets Workload) with the
// suite's engine options, shard count and observer.
func (s *Suite) Config(spec policy.Spec, t *traffic.Trace) sim.Config {
	return sim.Config{
		Topo:           s.Topo,
		Spec:           spec,
		Trace:          t,
		VCs:            s.Opts.VCs,
		Depth:          s.Opts.Depth,
		Pipeline:       s.Opts.Pipeline,
		LinkTicks:      s.Opts.LinkTicks,
		EpochTicks:     s.Opts.EpochTicks,
		Shards:         s.Opts.Shards,
		ShardMinActive: s.Opts.ShardMinActive,
		PunchHops:      s.Opts.PunchHops,
		NoPathPunch:    s.Opts.NoPathPunch,
		Obs:            s.Opts.Obs,
	}
}

// RunBenchmark runs one model kind over a named benchmark, compressed by
// factor (1 = uncompressed).
func (s *Suite) RunBenchmark(kind ModelKind, bench string, factor int64) (*sim.Result, error) {
	return s.RunBenchmarkObs(kind, bench, factor, s.Opts.Obs)
}

// RunBenchmarkObs is RunBenchmark with an explicit per-run observer (see
// RunTraceObs).
func (s *Suite) RunBenchmarkObs(kind ModelKind, bench string, factor int64, o *obs.Observer) (*sim.Result, error) {
	t, err := s.TraceCompressed(bench, factor)
	if err != nil {
		return nil, err
	}
	return s.RunTraceObs(kind, t, o)
}

// Comparison holds all five models' results on one workload.
type Comparison struct {
	Bench   string
	Factor  int64
	Results map[ModelKind]*sim.Result
}

// Compare runs all five models over a benchmark at a compression factor
// on the suite's pool. ML models must be trained first.
func (s *Suite) Compare(bench string, factor int64) (*Comparison, error) {
	runs := make([]Run, len(AllKinds))
	for i, k := range AllKinds {
		runs[i] = Run{Kind: k, Bench: bench, Factor: factor}
	}
	results, err := s.RunBenchmarks(runs)
	if err != nil {
		return nil, err
	}
	c := &Comparison{Bench: bench, Factor: factor, Results: make(map[ModelKind]*sim.Result)}
	for i, k := range AllKinds {
		c.Results[k] = results[i]
	}
	return c, nil
}

// Run names one simulation of a benchmark: a model kind over the
// benchmark's trace compressed by Factor (1 = uncompressed).
type Run struct {
	Kind   ModelKind
	Bench  string
	Factor int64
}

// RunBenchmarks runs every run on the suite's pool and returns the
// results in run order. Each result equals what RunBenchmark returns for
// the same run, up to the scheduling diagnostics.
func (s *Suite) RunBenchmarks(runs []Run) ([]*sim.Result, error) {
	cfgs := make([]sim.Config, len(runs))
	for i, r := range runs {
		spec, err := s.Spec(r.Kind) // fresh selector state per run
		if err != nil {
			return nil, err
		}
		t, err := s.TraceCompressed(r.Bench, r.Factor)
		if err != nil {
			return nil, err
		}
		cfgs[i] = s.Config(spec, t)
	}
	return s.RunConfigs(cfgs)
}

// RunConfigs runs every config, each built by Config, on the suite's pool
// and returns the results in config order. The pool sets each run's shard
// count (see pool); a result equals a direct sim.Run of its config up to
// the scheduling diagnostics.
func (s *Suite) RunConfigs(cfgs []sim.Config) ([]*sim.Result, error) {
	out := make([]*sim.Result, len(cfgs))
	err := s.forEach(len(cfgs), func(i, shards int) error {
		cfg := cfgs[i]
		cfg.Shards = shards
		var err error
		if out[i], err = sim.Run(cfg); err != nil {
			return fmt.Errorf("core: %s: %w", cfg.Spec.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Relative compares a model's result against the baseline's on the same
// workload: throughput and latency ratios plus normalized energies.
type Relative struct {
	Kind             ModelKind
	ThroughputRatio  float64 // model/baseline (1.0 = no loss)
	LatencyRatio     float64
	StaticNorm       float64 // static energy normalized to baseline
	DynamicNorm      float64
	StaticSavings    float64 // 1 - StaticNorm
	DynamicSavings   float64
	EDPNorm          float64 // energy-delay product normalized to baseline
	OffFraction      float64
	BreakevenMetFrac float64
}

// Relatives normalizes every model in a comparison to its baseline.
func (c *Comparison) Relatives() []Relative {
	out := make([]Relative, 0, len(AllKinds))
	for _, k := range AllKinds {
		rel := Relate(c.Results[KindBaseline], c.Results[k])
		rel.Kind = k
		out = append(out, rel)
	}
	return out
}

// Relate compares r against base, a run over the same workload: the one
// formula behind every savings and ratio the experiments report. A
// zero-valued base quantity leaves the matching ratio at 0. The result's
// Kind is left for the caller to set.
func Relate(base, r *sim.Result) Relative {
	rel := Relative{OffFraction: r.OffFraction}
	if base.Throughput > 0 {
		rel.ThroughputRatio = r.Throughput / base.Throughput
	}
	if base.AvgLatencyTicks > 0 {
		rel.LatencyRatio = r.AvgLatencyTicks / base.AvgLatencyTicks
	}
	if base.StaticJ > 0 {
		rel.StaticNorm = r.StaticJ / base.StaticJ
		rel.StaticSavings = 1 - rel.StaticNorm
	}
	if base.DynamicJ > 0 {
		rel.DynamicNorm = r.DynamicJ / base.DynamicJ
		rel.DynamicSavings = 1 - rel.DynamicNorm
	}
	if e := base.EDP(); e > 0 {
		rel.EDPNorm = r.EDP() / e
	}
	if r.Policy.Wakes > 0 {
		rel.BreakevenMetFrac = float64(r.Policy.BreakevenMet) / float64(r.Policy.Wakes)
	}
	return rel
}

// pool returns how the suite's pool runs its simulations: width of them
// at once, each sweeping with the given shard count. The pool is
// GOMAXPROCS runs wide, or one run wide when Options.Obs is attached,
// since a Metrics binds to one run at a time. In a pool wider than one,
// auto sharding (Shards 0) resolves to the serial sweep: the pool already
// keeps every CPU busy, and a sharded run's workers would only spin
// against sibling runs. An explicit count is kept.
func (s *Suite) pool() (width, shards int) {
	width, shards = runtime.GOMAXPROCS(0), s.Opts.Shards
	if s.Opts.Obs != nil {
		width = 1
	}
	if width > 1 && shards == 0 {
		shards = 1
	}
	return width, shards
}

// forEach calls job(i, shards) for every i in [0, n) on the suite's pool
// and returns the error of the lowest failing i. Each job is an
// independent, deterministic simulation, so the pool's width changes only
// the wall time.
func (s *Suite) forEach(n int, job func(i, shards int) error) error {
	width, shards := s.pool()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(width, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = job(i, shards)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// HarvestParallel harvests the reactive datasets of the given ML kinds
// over the given traces on the suite's pool. A harvest another goroutine
// has already started is waited for, not repeated. Subsequent Train calls
// hit the cache.
func (s *Suite) HarvestParallel(kinds []ModelKind, traces []string) error {
	return s.forEach(len(kinds)*len(traces), func(i, shards int) error {
		_, err := s.dataset(datasetKey{kinds[i/len(traces)], traces[i%len(traces)]}, shards)
		return err
	})
}

// WeightsFileName returns the conventional weights-file name for an ML
// kind (what cmd/train writes).
func WeightsFileName(kind ModelKind) (string, error) {
	switch kind {
	case KindLEAD:
		return "lead.weights.json", nil
	case KindDozzNoC:
		return "dozznoc.weights.json", nil
	case KindTurbo:
		return "turbo.weights.json", nil
	}
	return "", fmt.Errorf("core: %v has no weights file", kind)
}

// SaveTrainedModels writes every trained model to dir using the
// conventional file names.
func (s *Suite) SaveTrainedModels(dir string) error {
	for _, k := range MLKinds {
		m := s.TrainedModel(k)
		if m == nil {
			continue
		}
		name, err := WeightsFileName(k)
		if err != nil {
			return err
		}
		if err := ml.SaveModel(filepath.Join(dir, name), m); err != nil {
			return err
		}
	}
	return nil
}

// LoadTrainedModels loads every conventional weights file present in dir
// (missing files are skipped) and returns how many models were installed.
func (s *Suite) LoadTrainedModels(dir string) (int, error) {
	loaded := 0
	for _, k := range MLKinds {
		name, err := WeightsFileName(k)
		if err != nil {
			return loaded, err
		}
		path := filepath.Join(dir, name)
		if _, err := os.Stat(path); err != nil {
			continue
		}
		m, err := ml.LoadModel(path)
		if err != nil {
			return loaded, err
		}
		s.SetTrainedModel(k, m)
		loaded++
	}
	return loaded, nil
}
