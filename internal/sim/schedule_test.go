// Engagement and probe tests for the engine's scheduling paths: runs
// are deterministic, the event horizon skips idle time, active-set
// deferral is independent of fast-forward, concurrent sweeps engage on
// the geometry they are built for, and the epoch barrier never lets a
// deferred router be sampled. Bit-exactness against the reference
// engine is FuzzEngineVsReference's job (reference_test.go). This lives
// in an external test package (sim_test) so it can drive the engine
// through the core.Suite API — core imports sim, so an internal test
// would be an import cycle.
package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/flit"
	"repro/internal/ml"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// passthroughSuite builds a reduced 4x4 suite with IBU-passthrough
// predictors installed, so ML kinds run without the training pipeline.
func passthroughSuite(t testing.TB) *core.Suite {
	t.Helper()
	s := core.NewSuite(topology.NewMesh(4, 4), core.Options{Horizon: 8000, Seed: 3})
	for _, k := range core.MLKinds {
		s.SetTrainedModel(k, &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}})
	}
	return s
}

// TestDeterminism runs every model kind twice on the same seeded trace
// and requires deeply equal Results.
func TestDeterminism(t *testing.T) {
	s := passthroughSuite(t)
	for _, kind := range core.AllKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			a, err := s.RunBenchmark(kind, "fft", 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.RunBenchmark(kind, "fft", 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("two identical runs differ:\nrun1: %+v\nrun2: %+v", a, b)
			}
		})
	}
}

// TestFastForwardSkipsIdleTime pins the engine's reason to exist: on a
// sparse trace under a gating model, a large share of simulated time is
// covered by the closed-form path.
func TestFastForwardSkipsIdleTime(t *testing.T) {
	s := passthroughSuite(t)
	res, err := s.RunBenchmark(core.KindDozzNoC, "blackscholes", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FastForwardedTicks == 0 {
		t.Fatal("fast-forward never engaged on a sparse trace")
	}
	if frac := float64(res.FastForwardedTicks) / float64(res.Ticks); frac < 0.10 {
		t.Errorf("fast-forward covered only %.1f%% of %d ticks; expected a sparse trace to be mostly idle", 100*frac, res.Ticks)
	}
}

// opaqueWorkload wraps a workload but claims it may inject on every
// tick: a watermark of now, which bounds every skip at zero ticks.
type opaqueWorkload struct{ sim.Workload }

func (opaqueWorkload) NextInjectionTick(now int64) int64 { return now }

// TestActiveSetLazyTicksScheduleInvariant pins the diagnostic itself:
// because the active set never contains a deferrable router when the
// event horizon fires, the number of lazily deferred router-ticks is
// identical whether or not fast-forward engages. The trace run skips;
// the same trace replayed through an opaque workload steps every tick
// with the active set still on.
func TestActiveSetLazyTicksScheduleInvariant(t *testing.T) {
	s := passthroughSuite(t)
	tr, err := s.Trace("fft")
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg sim.Config) *sim.Result {
		spec, err := s.Spec(core.KindDozzNoC)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Spec = spec
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ff := run(sim.Config{Topo: s.Topo, Trace: tr})
	slow := run(sim.Config{Topo: s.Topo, Workload: opaqueWorkload{traffic.NewReplay(tr)}})
	if ff.FastForwardedTicks == 0 || slow.FastForwardedTicks+slow.HorizonSkippedTicks != 0 {
		t.Fatalf("skips: trace run %d, opaque workload run %d+%d; want >0 and 0",
			ff.FastForwardedTicks, slow.FastForwardedTicks, slow.HorizonSkippedTicks)
	}
	if ff.LazySkippedRouterTicks != slow.LazySkippedRouterTicks {
		t.Errorf("lazy router-ticks depend on fast-forward: ff=%d tick-by-tick=%d",
			ff.LazySkippedRouterTicks, slow.LazySkippedRouterTicks)
	}
	if ff.LazySkippedRouterTicks == 0 {
		t.Error("active-set deferral never engaged")
	}
}

// bandedTrace keeps the top two and bottom two router rows of a mesh
// exchanging row-local traffic for the whole horizon while everything in
// between stays silent. With row-aligned shards the busy bands sit deep
// inside the first and last shard, every boundary margin stays inert,
// and the quiet-margin predicate admits concurrent sweeps on nearly
// every tick — the geometry the sharded engine is built for.
func bandedTrace(topo topology.Topology, horizon int64) *traffic.Trace {
	return twoBandTrace(topo, horizon, 0, topo.Height()-2)
}

// twoBandTrace is bandedTrace with the two busy two-row bands starting
// at router rows topRow and bottomRow.
func twoBandTrace(topo topology.Topology, horizon int64, topRow, bottomRow int) *traffic.Trace {
	top, bottom := rowBand(topo, topRow), rowBand(topo, bottomRow)
	tr := &traffic.Trace{Name: "banded", Cores: topo.NumCores(), Horizon: horizon}
	for t, i := int64(0), 0; t < horizon; t, i = t+2, i+1 {
		tr.Entries = append(tr.Entries,
			traffic.Entry{Time: t, Src: top[i%len(top)], Dst: top[(i+3)%len(top)], Kind: flit.Request},
			traffic.Entry{Time: t, Src: bottom[i%len(bottom)], Dst: bottom[(i+5)%len(bottom)], Kind: flit.Request})
	}
	return tr
}

// rowBand lists the cores of the two router rows starting at row0.
func rowBand(topo topology.Topology, row0 int) []int {
	width := topo.Width()
	cores := make([]int, 0, 2*width)
	for row := row0; row < row0+2; row++ {
		for x := 0; x < width; x++ {
			cores = append(cores, topo.CoreAt(topo.RouterAt(x, row), 0))
		}
	}
	return cores
}

// phaseShiftTrace cuts the horizon into phases of phaseLen ticks; each
// phase draws a fresh pair of busy two-row bands (one per half of the
// mesh) exchanging randomized band-local bursts, plus a hotspot router
// that the upper band streams requests at. Band and hotspot positions
// move between phases, so a band regularly lands on or next to a shard
// boundary and whether the boundary margins are quiet changes mid-run;
// the hotspot's traffic crosses boundaries whenever it sits in another
// shard.
func phaseShiftTrace(topo topology.Topology, horizon, phaseLen, seed int64) *traffic.Trace {
	rng := rand.New(rand.NewSource(seed))
	width, rows := topo.Width(), topo.Height()
	kinds := []flit.Kind{flit.Request, flit.Request, flit.Response}
	tr := &traffic.Trace{Name: "phase-shift", Cores: topo.NumCores(), Horizon: horizon}
	for p0 := int64(0); p0 < horizon; p0 += phaseLen {
		top := rowBand(topo, rng.Intn(rows/2-1))
		bottom := rowBand(topo, rows/2+rng.Intn(rows/2-1))
		hot := topo.CoreAt(topo.RouterAt(rng.Intn(width), rng.Intn(rows)), 0)
		end := min(p0+phaseLen, horizon)
		for t := p0; t < end; t++ {
			for _, cores := range [][]int{top, bottom} {
				for burst := rng.Intn(2); burst > 0; burst-- {
					si := rng.Intn(len(cores))
					dst := cores[(si+1+rng.Intn(len(cores)-1))%len(cores)]
					tr.Entries = append(tr.Entries, traffic.Entry{
						Time: t, Src: cores[si], Dst: dst, Kind: kinds[rng.Intn(len(kinds))],
					})
				}
			}
			if t%5 == 0 {
				if src := top[rng.Intn(len(top))]; src != hot {
					tr.Entries = append(tr.Entries, traffic.Entry{Time: t, Src: src, Dst: hot, Kind: flit.Request})
				}
			}
		}
	}
	return tr
}

// TestShardedSweepEngagesAndMatchesSerial drives a mesh tall enough for
// real shard interiors (8x16: at Shards=4 each shard owns four rows)
// with banded traffic that keeps two distant shards busy at once, and
// requires both that concurrent sweeps actually engage (ParallelTicks >
// 0 — without this the bit-exactness checks would be vacuous) and that
// every model's Result is deeply equal to the serial engine's.
func TestShardedSweepEngagesAndMatchesSerial(t *testing.T) {
	topo := topology.NewMesh(8, 16)
	tr := bandedTrace(topo, 20_000)
	s := core.NewSuite(topo, core.Options{Horizon: 20_000, Seed: 3})
	for _, k := range core.MLKinds {
		s.SetTrainedModel(k, &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}})
	}
	for _, kind := range core.AllKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			runK := func(shards int) *sim.Result {
				spec, err := s.Spec(kind)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run(sim.Config{
					Topo:           topo,
					Spec:           spec,
					Trace:          tr,
					Shards:         shards,
					ShardMinActive: -1,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			serial := runK(1)
			if serial.ParallelTicks != 0 {
				t.Fatalf("Shards=1 run counted %d parallel ticks", serial.ParallelTicks)
			}
			zeroSchedulingDiagnostics(serial)
			for _, k := range []int{2, 4} {
				sharded := runK(k)
				if sharded.ParallelTicks == 0 {
					t.Errorf("Shards=%d never swept concurrently on banded traffic", k)
				}
				zeroSchedulingDiagnostics(sharded)
				if !reflect.DeepEqual(sharded, serial) {
					t.Errorf("Shards=%d result differs from serial:\nsharded: %+v\nserial:  %+v", k, sharded, serial)
				}
			}
		})
	}
}

// TestRetileRandomizedStress runs phase-shifting banded+hotspot traffic
// on two mesh sizes, every paper model, Shards in {1,2,4}, with 1-tick
// links so the staged landing path rides along. The name is that of the
// stress suite for the load-aware re-split, which has since been
// removed: the even row split now stays fixed for the whole run while
// the busy rows move. Every sharded Result must be deeply equal to the
// serial engine's, no run may report a re-split, and across each mesh
// the sharded runs must sweep concurrently, otherwise the equivalence
// proof would be vacuous.
func TestRetileRandomizedStress(t *testing.T) {
	meshes := []struct {
		w, h    int
		horizon int64
	}{
		{8, 16, 15_000},
		{16, 32, 8_000},
	}
	for _, m := range meshes {
		m := m
		t.Run(fmt.Sprintf("mesh%dx%d", m.w, m.h), func(t *testing.T) {
			topo := topology.NewMesh(m.w, m.h)
			tr := phaseShiftTrace(topo, m.horizon, 2_500, 11)
			s := core.NewSuite(topo, core.Options{Horizon: m.horizon, Seed: 3})
			for _, k := range core.MLKinds {
				s.SetTrainedModel(k, &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}})
			}
			var parallelTicks int64
			for _, kind := range core.AllKinds {
				kind := kind
				t.Run(kind.String(), func(t *testing.T) {
					runK := func(shards int) *sim.Result {
						spec, err := s.Spec(kind)
						if err != nil {
							t.Fatal(err)
						}
						res, err := sim.Run(sim.Config{
							Topo:           topo,
							Spec:           spec,
							Trace:          tr,
							LinkTicks:      1,
							Shards:         shards,
							ShardMinActive: -1,
						})
						if err != nil {
							t.Fatal(err)
						}
						if res.ShardResplits != 0 {
							t.Fatalf("Shards=%d run re-split %d times; the row split must stay fixed", shards, res.ShardResplits)
						}
						return res
					}
					serial := runK(1)
					if serial.ParallelTicks != 0 {
						t.Fatalf("Shards=1 run counted %d parallel ticks", serial.ParallelTicks)
					}
					zeroSchedulingDiagnostics(serial)
					for _, k := range []int{2, 4} {
						sharded := runK(k)
						parallelTicks += sharded.ParallelTicks
						zeroSchedulingDiagnostics(sharded)
						if !reflect.DeepEqual(sharded, serial) {
							t.Errorf("Shards=%d result differs from serial:\nsharded: %+v\nserial:  %+v", k, sharded, serial)
						}
					}
				})
			}
			if parallelTicks == 0 {
				t.Error("no sharded run ever swept concurrently; the equivalence check is vacuous")
			}
		})
	}
}

// probeSample is one occupancy observation made through the public
// feature-extractor hook.
type probeSample struct {
	Router   int
	Tick     int64
	Occupied int
	Cycle    int64
}

// probeExtractor wraps a real extractor and records, at every
// epoch-boundary Collect call, the router's occupancy aggregate and
// local cycle counter — the state DESIGN.md §5b says must never be
// sampled while a router is deferred and behind.
type probeExtractor struct {
	inner sim.FeatureExtractor
	log   []probeSample
}

func (p *probeExtractor) Collect(routerID int, net *network.Network, ctrl *policy.Controller, ibu float64, now timing.Tick) []float64 {
	p.log = append(p.log, probeSample{
		Router:   routerID,
		Tick:     int64(now),
		Occupied: net.Routers[routerID].Occupied(),
		Cycle:    net.Routers[routerID].LocalCycle(),
	})
	return p.inner.Collect(routerID, net, ctrl, ibu, now)
}

// TestEpochBarrierGuardsOccupancySampling is the regression test for the
// §5b barrier precondition: the only path the public API offers for
// sampling a router's occupancy mid-run is the epoch-boundary extractor
// hook, and every observation it yields must come from fully caught-up
// state. A lazily scheduled run (deferral + fast-forward + arming all
// engaged) must produce the identical observation log — occupancy AND
// local cycle counters — as the reference engine; a missed catchUpAll would
// leave a deferred router's cycle counter behind and diverge the log.
// (Inside the engine the same precondition is asserted outright: the
// epoch boundary panics if any router's catch-up tick lags the epoch
// tick.)
func TestEpochBarrierGuardsOccupancySampling(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	p, ok := traffic.ProfileByName("fft")
	if !ok {
		t.Fatal("unknown profile fft")
	}
	g := traffic.Generator{Topo: topo, Horizon: 8000, Seed: 3}
	tr := g.Generate(p)
	run := func(reference bool) (*probeExtractor, *sim.Result) {
		probe := &probeExtractor{inner: features.NewExtractor(topo)}
		res, err := sim.Run(sim.Config{
			Topo:      topo,
			Spec:      policy.DozzNoC(policy.ReactiveSelector{}),
			Trace:     tr,
			Extractor: probe,
			Reference: reference,
		})
		if err != nil {
			t.Fatal(err)
		}
		return probe, res
	}
	lazyProbe, lazyRes := run(false)
	eagerProbe, _ := run(true)
	if lazyRes.LazySkippedRouterTicks == 0 {
		t.Fatal("active-set deferral never engaged; the probe proves nothing")
	}
	if len(lazyProbe.log) == 0 {
		t.Fatal("extractor hook never fired")
	}
	if !reflect.DeepEqual(lazyProbe.log, eagerProbe.log) {
		t.Errorf("epoch-boundary occupancy observations diverge between lazy and eager runs (%d vs %d samples): a deferred router was sampled without the catch-up barrier", len(lazyProbe.log), len(eagerProbe.log))
	}
}
