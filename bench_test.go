// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (DESIGN.md §4 maps each to its experiment function).
// Static tables bench the model encodings; figure benches run the
// simulation pipeline on a reduced configuration (4x4 mesh, short traces)
// so `go test -bench=. -benchmem` regenerates every result in minutes.
// The full-size 8x8 reproduction lives in cmd/experiments.
package main

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/flit"
	"repro/internal/mcsim"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/vr"
)

// benchSuite builds the reduced-configuration suite shared by the figure
// benchmarks.
func benchSuite() *core.Suite {
	return core.NewSuite(topology.NewMesh(4, 4), core.Options{Horizon: 8000, Seed: 3})
}

// injectPassthroughModels installs IBU-passthrough predictors so figure
// benches measure simulation, not training.
func injectPassthroughModels(s *core.Suite) {
	for _, k := range core.MLKinds {
		s.SetTrainedModel(k, &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}})
	}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.TableI()
		r.Write(io.Discard)
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.TableII()
		r.Write(io.Discard)
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.TableIII()
		r.Write(io.Discard)
	}
}

func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.TableV()
		r.Write(io.Discard)
	}
}

func BenchmarkOverheadTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.OverheadTable()
		r.Write(io.Discard)
	}
}

func BenchmarkFig5Waveforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig5(10, 0.1, 40)
		r.Write(io.Discard)
	}
}

func BenchmarkFig6Efficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig6()
		r.Write(io.Discard)
	}
}

func BenchmarkFig7ModeDistribution(b *testing.B) {
	s := benchSuite()
	injectPassthroughModels(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig7(s)
		if err != nil {
			b.Fatal(err)
		}
		r.Write(io.Discard)
	}
}

func BenchmarkFig8EnergyThroughput(b *testing.B) {
	s := benchSuite()
	injectPassthroughModels(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig8(s, exp.DefaultCompression)
		if err != nil {
			b.Fatal(err)
		}
		r.Write(io.Discard)
	}
}

func BenchmarkFig9FeatureAccuracy(b *testing.B) {
	s := benchSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig9(s)
		if err != nil {
			b.Fatal(err)
		}
		r.Write(io.Discard)
	}
}

func BenchmarkHeadline(b *testing.B) {
	s := benchSuite()
	injectPassthroughModels(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := exp.Headline(s, exp.DefaultCompression, nil)
		if err != nil {
			b.Fatal(err)
		}
		r.Write(io.Discard)
	}
}

func BenchmarkEpochSweep(b *testing.B) {
	factory := func(ep int64) *core.Suite {
		s := core.NewSuite(topology.NewMesh(4, 4), core.Options{Horizon: 8000, Seed: 3, EpochTicks: ep})
		injectPassthroughModels(s)
		return s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := exp.RunEpochSweep(factory, "fft", exp.DefaultCompression, []int64{250, 500})
		if err != nil {
			b.Fatal(err)
		}
		r.Write(io.Discard)
	}
}

// BenchmarkTraining measures the full offline ML pipeline (reactive
// harvest over 9 traces + lambda sweep) for one model.
func BenchmarkTraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		if _, err := s.Train(core.KindDozzNoC); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBaseline measures raw simulation speed: base ticks per
// second on a quiet 8x8 mesh baseline run.
func BenchmarkEngineBaseline(b *testing.B) {
	topo := topology.NewMesh(8, 8)
	p, _ := traffic.ProfileByName("fft")
	g := traffic.Generator{Topo: topo, Horizon: 10_000, Seed: 1}
	tr := g.Generate(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{Topo: topo, Spec: policy.Baseline(), Trace: tr}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineDozzNoC measures the proposed model's simulation speed
// (power gating + DVFS + per-epoch feature extraction).
func BenchmarkEngineDozzNoC(b *testing.B) {
	topo := topology.NewMesh(8, 8)
	p, _ := traffic.ProfileByName("fft")
	g := traffic.Generator{Topo: topo, Horizon: 10_000, Seed: 1}
	tr := g.Generate(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{Topo: topo, Spec: policy.DozzNoC(policy.ReactiveSelector{}), Trace: tr}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFastForwardLowLoad measures the idle fast-forward path where
// it matters: a sparse (low-load) trace on an 8x8 mesh under the gating
// DozzNoC model leaves the network quiescent most of the time, so the
// closed-form skip should beat tick-by-tick execution by a wide margin
// (and the flit pool should cut allocations). The reference
// sub-benchmark is the same configuration on the reference engine
// (Config.Reference: every tick, every router).
func BenchmarkFastForwardLowLoad(b *testing.B) {
	topo := topology.NewMesh(8, 8)
	tr := traffic.Synthetic(topo, traffic.UniformRandom, 0.0001, 60_000, 1)
	run := func(b *testing.B, reference bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(sim.Config{
				Topo:      topo,
				Spec:      policy.DozzNoC(policy.ReactiveSelector{}),
				Trace:     tr,
				Reference: reference,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !reference && res.FastForwardedTicks == 0 {
				b.Fatal("fast-forward never engaged")
			}
		}
	}
	b.Run("fastforward", func(b *testing.B) { run(b, false) })
	b.Run("reference", func(b *testing.B) { run(b, true) })
}

// burstTrace builds sparse bursts separated by idle gaps far longer than
// an epoch: a handful of packets every ~20000 ticks on an 8x8 mesh. The
// gaps are where the event horizon earns its keep — with LinkTicks 3 the
// tail of each burst leaves flits on wires and routers mid-wakeup, so
// the old quiescence precondition would have ticked through the drain
// and every wake window one base tick at a time.
func burstTrace(topo topology.Topology, horizon int64) *traffic.Trace {
	nc := topo.NumCores()
	tr := &traffic.Trace{Name: "burst", Cores: nc, Horizon: horizon}
	for t, i := int64(0), 0; t < horizon; t, i = t+20_000, i+1 {
		for k := 0; k < 6; k++ {
			src := (i*7 + k*13) % nc
			dst := (src + 17 + k) % nc
			if dst == src {
				dst = (dst + 1) % nc
			}
			tr.Entries = append(tr.Entries, traffic.Entry{
				Time: t + int64(k%3), Src: src, Dst: dst, Kind: flit.Request,
			})
		}
	}
	return tr
}

// BenchmarkBursty measures the event-horizon path on bursty low-load
// traffic (sparse bursts, idle gaps much longer than an epoch) with
// 3-tick wires. The horizon arm must engage both skip regimes
// (quiescent fast-forward and non-quiescent horizon skips); the
// reference sub-benchmark is the same configuration on the reference
// engine.
func BenchmarkBursty(b *testing.B) {
	topo := topology.NewMesh(8, 8)
	tr := burstTrace(topo, 600_000)
	run := func(b *testing.B, reference bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(sim.Config{
				Topo:      topo,
				Spec:      policy.DozzNoC(policy.ReactiveSelector{}),
				Trace:     tr,
				LinkTicks: 3,
				Reference: reference,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !reference && res.FastForwardedTicks == 0 {
				b.Fatal("fast-forward never engaged")
			}
			if !reference && res.HorizonSkippedTicks == 0 {
				b.Fatal("event horizon never engaged")
			}
		}
	}
	b.Run("horizon", func(b *testing.B) { run(b, false) })
	b.Run("reference", func(b *testing.B) { run(b, true) })
}

// BenchmarkClosedLoopMcsim measures the engine directly under the
// closed-loop mcsim workload — the regime the event horizon opened up
// (fast-forward used to be disabled whenever a Workload was attached).
// The horizon arm asserts non-quiescent skips engage; the reference arm
// is the same configuration on the reference engine.
func BenchmarkClosedLoopMcsim(b *testing.B) {
	topo := topology.NewMesh(4, 4)
	params := mcsim.DefaultSystem(topo)
	params.Core.Instructions = 20_000
	run := func(b *testing.B, reference bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w, err := mcsim.New(params)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Run(sim.Config{
				Topo:      topo,
				Spec:      policy.DozzNoC(policy.ReactiveSelector{}),
				Workload:  w,
				Reference: reference,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !reference && res.HorizonSkippedTicks == 0 {
				b.Fatal("event horizon never engaged on the closed-loop workload")
			}
		}
	}
	b.Run("horizon", func(b *testing.B) { run(b, false) })
	b.Run("reference", func(b *testing.B) { run(b, true) })
}

// runActiveSetBench runs one trace under the gating DozzNoC model on
// the default engine, asserting the lazy path actually engaged, or on
// the reference engine (every tick, every router; Config.Reference).
func runActiveSetBench(b *testing.B, topo topology.Topology, tr *traffic.Trace, reference bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Topo:      topo,
			Spec:      policy.DozzNoC(policy.ReactiveSelector{}),
			Trace:     tr,
			Reference: reference,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !reference && res.LazySkippedRouterTicks == 0 {
			b.Fatal("active-set deferral never engaged")
		}
	}
}

// mediumLoadTrace is BenchmarkMediumLoad's workload.
func mediumLoadTrace(topo topology.Topology) *traffic.Trace {
	return traffic.Synthetic(topo, traffic.UniformRandom, 0.002, 30_000, 1)
}

// BenchmarkMediumLoad measures active-set scheduling under sustained
// uniform-random load on the 8x8 mesh: traffic keeps the fabric from
// ever going quiescent (so global fast-forward rarely helps), but at
// any instant most routers are idle and deferrable.
func BenchmarkMediumLoad(b *testing.B) {
	topo := topology.NewMesh(8, 8)
	tr := mediumLoadTrace(topo)
	b.Run("activeset", func(b *testing.B) { runActiveSetBench(b, topo, tr, false) })
	b.Run("reference", func(b *testing.B) { runActiveSetBench(b, topo, tr, true) })
}

// obsPairs is the number of obs-off/obs-on run pairs per b.N iteration
// of BenchmarkObsOverhead, and obsOverheadBound the percent by which the
// median pair ratio may exceed 1 (`make obs-overhead`). On a shared
// 2-CPU host the quartiles of single pair ratios sit 3% to 15% from the
// median, and the medians of consecutive 60-pair blocks of one run
// spread over 5.8 points (-2.4% to +3.4%), of 200-pair blocks over 1.5,
// so a 2% bound needs about 400 pairs (about 50 s).
const (
	obsPairs         = 400
	obsOverheadBound = 2.0
)

// obsOnSlowdown stretches every obs-on run by this fraction of its own
// time. It is 0 except in the obsslowdown build (obs_slowdown_test.go),
// which proves the gate can see a slowdown just above its bound.
var obsOnSlowdown float64

// BenchmarkObsOverhead is the observability overhead gate: the
// BenchmarkMediumLoad activeset run with obs disabled against the same
// run with an enabled-but-unsubscribed Metrics (no tracer, no endpoint
// reader), which includes the prediction-quality recorder — histograms,
// mispredict-cost attribution and the drift detector (DESIGN.md §5j).
// The two arms alternate inside this one process, swapping their order
// each pair, and every run is timed on its own; stats.Paired of the
// pairs gives the median obs-on/obs-off ratio, and the benchmark fails
// if it is more than obsOverheadBound percent above 1. One Observer
// serves every obs-on run, as a long-lived daemon's would.
func BenchmarkObsOverhead(b *testing.B) {
	topo := topology.NewMesh(8, 8)
	tr := mediumLoadTrace(topo)
	observer := obs.New()
	run := func(o *obs.Observer) float64 {
		runtime.GC() // collect the previous run's garbage outside the timed span
		start := time.Now()
		res, err := sim.Run(sim.Config{
			Topo:  topo,
			Spec:  policy.DozzNoC(policy.ReactiveSelector{}),
			Trace: tr,
			Obs:   o,
		})
		if err != nil {
			b.Fatal(err)
		}
		if o != nil && o.Metrics.Snapshot().LazyTicks != res.LazySkippedRouterTicks {
			b.Fatal("obs disagrees with engine diagnostics")
		}
		if o != nil && obsOnSlowdown > 0 {
			stretch := time.Duration(float64(time.Since(start)) * (1 + obsOnSlowdown))
			for time.Since(start) < stretch {
			}
		}
		return float64(time.Since(start).Nanoseconds())
	}
	pairs := obsPairs * b.N
	off, on := make([]float64, pairs), make([]float64, pairs)
	for i := 0; i < pairs; i++ {
		if i%2 == 0 {
			off[i], on[i] = run(nil), run(observer)
		} else {
			on[i], off[i] = run(observer), run(nil)
		}
	}
	p := stats.Paired(off, on)
	b.ReportMetric(100*(p.Median-1), "overhead-%")
	b.ReportMetric(100*(p.Q1-1), "q1-%")
	b.ReportMetric(100*(p.Q3-1), "q3-%")
	b.ReportMetric(float64(p.Wins), "on-wins")
	if p.Regressed(obsOverheadBound) {
		b.Fatalf("obs overhead %+.2f%% (median of %d pairs, quartiles %+.2f%% %+.2f%%) exceeds %g%%",
			100*(p.Median-1), p.Pairs, 100*(p.Q1-1), 100*(p.Q3-1), obsOverheadBound)
	}
}

// hotspotTrace builds the regime global fast-forward misses entirely: a
// 2x2 corner of cores exchanges traffic continuously for the whole
// horizon while every other core is silent, so the network is never
// quiescent but ~60 of 64 routers stay dormant.
func hotspotTrace(topo topology.Topology, horizon int64) *traffic.Trace {
	corner := []int{0, 1, 8, 9}
	tr := &traffic.Trace{Name: "hotspot", Cores: topo.NumCores(), Horizon: horizon}
	for t, i := int64(0), 0; t < horizon; t, i = t+3, i+1 {
		tr.Entries = append(tr.Entries, traffic.Entry{
			Time: t,
			Src:  corner[i%len(corner)],
			Dst:  corner[(i+1)%len(corner)],
			Kind: flit.Request,
		})
	}
	return tr
}

// BenchmarkHotspot measures active-set scheduling with a few saturated
// routers and the rest idle (see hotspotTrace). The shards=N
// sub-benchmarks sweep the same trace under explicit shard counts; on
// this geometry the busy corner sits inside the first shard's boundary
// margin, so concurrent sweeps never engage and the numbers measure the
// sharded engine's serial-fallback overhead (expected ~1x). See
// BenchmarkBigMesh for the geometry where sharding pays.
//
// asym-fixed measures the serial fallback on a 16x32 mesh whose two busy
// bands (router rows 0-1 and 6-7) both sit in the top quarter
// (DESIGN.md §5g). The even split at Shards=4 cuts at rows 8/16/24, so
// all the work lands in the first shard and the lower band rides inside
// the first boundary's margin: the sweep must stay serial every tick,
// and the arm prices the sharded engine's per-tick fallback checks.
func BenchmarkHotspot(b *testing.B) {
	topo := topology.NewMesh(8, 8)
	tr := hotspotTrace(topo, 30_000)
	b.Run("activeset", func(b *testing.B) { runActiveSetBench(b, topo, tr, false) })
	b.Run("reference", func(b *testing.B) { runActiveSetBench(b, topo, tr, true) })
	for _, k := range []int{1, 2, 4} {
		k := k
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(sim.Config{
					Topo:   topo,
					Spec:   policy.DozzNoC(policy.ReactiveSelector{}),
					Trace:  tr,
					Shards: k,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	asymTopo := topology.NewMesh(16, 32)
	asymTr := bandTrace(asymTopo, 10_000, []int{0, 6}, 2)
	b.Run("asym-fixed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(sim.Config{
				Topo:           asymTopo,
				Spec:           policy.DozzNoC(policy.ReactiveSelector{}),
				Trace:          asymTr,
				Shards:         4,
				ShardMinActive: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.ParallelTicks != 0 {
				b.Fatal("fixed even split swept concurrently through a busy margin")
			}
		}
	})
}

// bigMeshTrace drives four four-row bands, one deep inside each quarter
// of a 32-row mesh, with band-local traffic (XY routing keeps flits
// inside their band's rows). Every shard boundary margin at Shards∈{2,4}
// stays inert, so the quiet-margin predicate admits concurrent sweeps
// tick after tick while a couple of hundred routers stay busy — the
// regime the sharded engine is for.
func bigMeshTrace(topo topology.Topology, horizon int64) *traffic.Trace {
	return bandTrace(topo, horizon, []int{1, 10, 18, 27}, 4)
}

// bandTrace is the shared banded-workload builder: bandRows[i] is the
// first of rowsPerBand consecutive busy router rows, each band exchanges
// band-local request/response pairs every tick, and every other row is
// silent.
func bandTrace(topo topology.Topology, horizon int64, bandRows []int, rowsPerBand int) *traffic.Trace {
	width := topo.Width()
	bands := make([][]int, 0, len(bandRows))
	for _, row0 := range bandRows {
		cores := make([]int, 0, rowsPerBand*width)
		for row := row0; row < row0+rowsPerBand; row++ {
			for x := 0; x < width; x++ {
				cores = append(cores, topo.CoreAt(topo.RouterAt(x, row), 0))
			}
		}
		bands = append(bands, cores)
	}
	tr := &traffic.Trace{Name: "banded", Cores: topo.NumCores(), Horizon: horizon}
	for t, i := int64(0), 0; t < horizon; t, i = t+1, i+1 {
		for _, cs := range bands {
			tr.Entries = append(tr.Entries,
				traffic.Entry{Time: t, Src: cs[i%len(cs)], Dst: cs[(i+21)%len(cs)], Kind: flit.Request},
				traffic.Entry{Time: t, Src: cs[(i+31)%len(cs)], Dst: cs[(i+7)%len(cs)], Kind: flit.Response})
		}
	}
	return tr
}

// BenchmarkBigMesh measures sharded concurrent sweeps on a 16x32 mesh
// (512 routers) where four distant row bands stay busy at once. The
// shards=1 sub-benchmark is the serial reference. On a 2-CPU Xeon host
// (go1.24, GOMAXPROCS 2; medians of six interleaved 3-iteration runs)
// shards=2 took ~0.48 s/op against ~0.6-0.7 s/op at shards=1. The
// channel-and-WaitGroup dispatch that the claim barrier replaced took
// ~0.99 s/op at shards=2, slower than serial, because both shards ran
// on one CPU. On a single-core host (GOMAXPROCS=1) the same numbers
// measure the two-phase staging overhead instead, since the concurrent
// sweeps can only interleave.
func BenchmarkBigMesh(b *testing.B) {
	topo := topology.NewMesh(16, 32)
	tr := bigMeshTrace(topo, 10_000)
	run := func(b *testing.B, shards int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// The default ShardMinActive threshold applies: banded load
			// keeps a couple of hundred routers active, well above it.
			res, err := sim.Run(sim.Config{
				Topo:   topo,
				Spec:   policy.DozzNoC(policy.ReactiveSelector{}),
				Trace:  tr,
				Shards: shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			if shards > 1 && res.ParallelTicks == 0 {
				b.Fatal("sharded sweep never engaged")
			}
		}
	}
	for _, k := range []int{1, 2, 4} {
		k := k
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) { run(b, k) })
	}

	// 64x64 (4096 routers): the hierarchical scale-out target. The
	// banded arm spreads four four-row bands across the mesh quarters —
	// roughly a thousand busy routers with quiet margins everywhere the
	// even split cuts. The hotspot arm crowds two bands into the top
	// eighth of the mesh, inside the first shard: its margins stay quiet,
	// so concurrent sweeps engage with every other shard idle, and the
	// arm prices the barrier when there is no work to overlap.
	big := topology.NewMesh(64, 64)
	bigTr := bandTrace(big, 6_000, []int{2, 20, 36, 54}, 4)
	runBig := func(b *testing.B, tr *traffic.Trace, shards int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(sim.Config{
				Topo:   big,
				Spec:   policy.DozzNoC(policy.ReactiveSelector{}),
				Trace:  tr,
				Shards: shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			if shards > 1 && res.ParallelTicks == 0 {
				b.Fatal("sharded sweep never engaged on the 64x64 mesh")
			}
		}
	}
	for _, k := range []int{1, 4} {
		k := k
		b.Run(fmt.Sprintf("64x64/shards=%d", k), func(b *testing.B) { runBig(b, bigTr, k) })
	}
	hotTr := bandTrace(big, 6_000, []int{2, 10}, 4)
	b.Run("64x64-hotspot/shards=4", func(b *testing.B) { runBig(b, hotTr, 4) })
}

// BenchmarkBigMeshWire is BenchmarkBigMesh with 2-tick links, so every
// hop rides the wire and each concurrently swept tick also carries due
// landings. The shards=1 sub-benchmark is the serial reference (lane-0
// landings); at shards>1 the due transits are bucketed by destination
// shard and landed by the workers, so the delta over BenchmarkBigMesh
// isolates what moving landings off the serial fraction buys.
func BenchmarkBigMeshWire(b *testing.B) {
	topo := topology.NewMesh(16, 32)
	tr := bigMeshTrace(topo, 10_000)
	run := func(b *testing.B, shards int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(sim.Config{
				Topo:      topo,
				Spec:      policy.DozzNoC(policy.ReactiveSelector{}),
				Trace:     tr,
				LinkTicks: 2,
				Shards:    shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			if shards > 1 && res.ParallelLandings == 0 {
				b.Fatal("parallel landing path never engaged")
			}
		}
	}
	for _, k := range []int{1, 2, 4} {
		k := k
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) { run(b, k) })
	}
}

// BenchmarkRidgeFit measures the closed-form ridge solve on a dataset the
// size of one full training corpus row count.
func BenchmarkRidgeFit(b *testing.B) {
	s := benchSuite()
	train, err := s.MergedDataset(core.KindDozzNoC, traffic.Train)
	if err != nil {
		b.Fatal(err)
	}
	scaler := ml.FitScaler(train.X)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.FitRidge(train.X, train.Y, 0.1, scaler); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneration measures synthesizing one full-size benchmark
// trace on the 8x8 mesh.
func BenchmarkTraceGeneration(b *testing.B) {
	topo := topology.NewMesh(8, 8)
	p, _ := traffic.ProfileByName("canneal")
	for i := 0; i < b.N; i++ {
		g := traffic.Generator{Topo: topo, Horizon: 60_000, Seed: int64(i + 1)}
		tr := g.Generate(p)
		if len(tr.Entries) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkTableVDerived measures the mini-DSENT analytical derivation of
// Table V.
func BenchmarkTableVDerived(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.TableVDerived()
		r.Write(io.Discard)
	}
}

// BenchmarkSIMOConverter measures the circuit-level SIMO simulation: cold
// start plus 200 us of steady-state regulation.
func BenchmarkSIMOConverter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := vr.NewSIMOSim(vr.DefaultSIMO())
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := s.StartupTimeUS(0.03, 500); !ok {
			b.Fatal("no regulation")
		}
		s.Run(300)
	}
}

// BenchmarkClosedLoop measures the full-system (mcsim) comparison across
// all five models on a reduced mesh.
func BenchmarkClosedLoop(b *testing.B) {
	s := core.NewSuite(topology.NewMesh(4, 4), core.Options{})
	params := mcsim.DefaultSystem(s.Topo)
	params.Core.Instructions = 20_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := exp.ClosedLoop(s, params)
		if err != nil {
			b.Fatal(err)
		}
		r.Write(io.Discard)
	}
}

// BenchmarkFeatureSet41 measures the DozzNoC-41 training and comparison
// pipeline on a reduced configuration.
func BenchmarkFeatureSet41(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		r, err := exp.FeatureSet41(s)
		if err != nil {
			b.Fatal(err)
		}
		r.Write(io.Discard)
	}
}

// BenchmarkAblations measures the T-Idle and punch-horizon sweeps.
func BenchmarkAblations(b *testing.B) {
	s := core.NewSuite(topology.NewMesh(4, 4), core.Options{Horizon: 6000})
	for i := 0; i < b.N; i++ {
		t, err := exp.TIdleSweep(s, "fft", []int{2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		t.Write(io.Discard)
		p, err := exp.PunchSweep(s, "fft", []int{0, -1})
		if err != nil {
			b.Fatal(err)
		}
		p.Write(io.Discard)
	}
}

// BenchmarkSessionIdleAdvance measures one idle co-simulation op: an 8x8
// DozzNoC session with an observer attached advances one 500-tick epoch
// and takes a Snapshot, the pair the cosim daemon runs for every idle
// `advance`. With no traffic the op is almost entirely epoch-boundary
// bookkeeping (feature collection, mode selection, the obs fold) plus
// the snapshot's meter sums, so its ns/op and allocs/op isolate that
// layer from the frame codec (DESIGN.md §5f).
func BenchmarkSessionIdleAdvance(b *testing.B) {
	s, err := sim.NewSession(sim.Config{
		Topo: topology.NewMesh(8, 8),
		Spec: policy.DozzNoC(policy.ReactiveSelector{}),
		Obs:  obs.New(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// Let the fabric settle into its idle steady state (routers gated)
	// before timing.
	for i := 0; i < 8; i++ {
		if _, err := s.Advance(500); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Advance(500); err != nil {
			b.Fatal(err)
		}
		if st := s.Snapshot(); st.Tick != s.Now() {
			b.Fatalf("snapshot tick %d, session at %d", st.Tick, s.Now())
		}
	}
}
