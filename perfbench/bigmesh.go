package main

// bigmesh-banded: one long sim.Run on a 16x32 mesh whose four row bands
// carry seeded band-local request/response traffic every tick, with
// 2-tick links, DozzNoC under the reactive selector and the default
// (auto) shard count. At this sustained load the buffers never empty, so
// the event horizon never engages: router stepping, wire landings and
// commit dominate. It is the only workload where the sharded sweep
// engages.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/features"
	"repro/internal/flit"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// bigMeshHorizon is the banded trace's length in base ticks.
const bigMeshHorizon = 4_000

// bandRows are the first rows of the four four-row bands, one deep inside
// each quarter of the 32 rows, so every shard boundary at 2 or 4 shards
// falls on quiet rows.
var bandRows = []int{1, 10, 18, 27}

func bigMeshTopo() topology.Topology { return topology.NewMesh(16, 32) }

// bandedTrace generates horizon ticks of band-local traffic: every tick,
// each band sends one request and one response between two distinct
// cores of that band, drawn from the seeded generator. XY routing keeps
// every flit inside its band's rows.
func bandedTrace(topo topology.Topology, horizon, seed int64) *traffic.Trace {
	rng := rand.New(rand.NewSource(seed))
	bands := make([][]int, len(bandRows))
	for i, row0 := range bandRows {
		for row := row0; row < row0+4; row++ {
			for x := 0; x < topo.Width(); x++ {
				bands[i] = append(bands[i], topo.CoreAt(topo.RouterAt(x, row), 0))
			}
		}
	}
	pair := func(cs []int) (int, int) {
		s := rng.Intn(len(cs))
		d := rng.Intn(len(cs) - 1)
		if d >= s {
			d++
		}
		return cs[s], cs[d]
	}
	tr := &traffic.Trace{Name: "banded", Cores: topo.NumCores(), Horizon: horizon}
	tr.Entries = make([]traffic.Entry, 0, 2*len(bands)*int(horizon))
	for t := int64(0); t < horizon; t++ {
		for _, cs := range bands {
			s, d := pair(cs)
			tr.Entries = append(tr.Entries, traffic.Entry{Time: t, Src: s, Dst: d, Kind: flit.Request})
			s, d = pair(cs)
			tr.Entries = append(tr.Entries, traffic.Entry{Time: t, Src: s, Dst: d, Kind: flit.Response})
		}
	}
	return tr
}

func bigMeshConfig(topo topology.Topology, tr *traffic.Trace) sim.Config {
	return sim.Config{
		Topo:      topo,
		Spec:      policy.DozzNoC(policy.ReactiveSelector{}),
		Trace:     tr,
		LinkTicks: 2,
	}
}

// resultDigest hashes a Result's deterministic fields: everything except
// the scheduling diagnostics, which vary with shard count and timing.
func resultDigest(res *sim.Result) (string, error) {
	d := *res
	d.FastForwardedTicks, d.HorizonSkippedTicks, d.LazySkippedRouterTicks = 0, 0, 0
	d.ParallelTicks, d.ParallelLandings, d.ShardResplits = 0, 0, 0
	d.ShardLoad, d.ShardLoadImbalance = nil, 0
	b, err := json.Marshal(&d)
	if err != nil {
		return "", err
	}
	return sha256Hex(b), nil
}

// checkRun verifies one banded run: it drained, and every trace entry was
// injected and delivered.
func checkRun(res *sim.Result, entries int) error {
	switch {
	case !res.Drained:
		return fmt.Errorf("run did not drain in %d ticks", res.Ticks)
	case res.PacketsInjected != int64(entries) || res.PacketsDelivered != int64(entries):
		return fmt.Errorf("trace has %d packets, injected %d, delivered %d", entries, res.PacketsInjected, res.PacketsDelivered)
	}
	return nil
}

func runBigMesh(p params) (*result, error) {
	res := &result{}
	topo := bigMeshTopo()
	horizon := bigMeshHorizon / p.shrink

	sp := startSpeedSampler()
	defer sp.finish()

	// Set-up: generate the trace.
	var setups []float64
	var tr *traffic.Trace
	setUp := func(n int) {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			tr = bandedTrace(topo, horizon, p.seed)
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	setUp(setupFirst)
	entries := len(tr.Entries)

	var u unitFigures
	var digest string
	mem := memNow()
	units, err := repeat(p.budget, func() error {
		if res.attempted++; res.attempted > 1 {
			setUp(setupEach)
		}
		t0 := time.Now()
		r, err := sim.Run(bigMeshConfig(topo, tr))
		t1 := time.Now()
		if err != nil {
			res.fail(1, "run: %v", err)
			return nil
		}
		if err := checkRun(r, entries); err != nil {
			res.fail(1, "%v", err)
		}
		d, err := resultDigest(r)
		if err != nil {
			return err
		}
		if digest == "" {
			digest = d
			if p.pinned() {
				if err := checkDigest("result", d, pinnedDigests["bigmesh-banded"]); err != nil {
					res.fail(1, "%v", err)
				}
			}
		} else if d != digest {
			res.fail(1, "result digest %s differs from the first run's %s", d, digest)
		}
		u.add(t0, t1, 1, r.Ticks*int64(topo.NumRouters()), nil)
		return nil
	})
	if err != nil {
		return nil, err
	}
	allocMB, gcs := mem.since(units)
	res.digest = digest

	u.report(res, setups, sp)
	res.layer.set("traffic.generate_ms", median(setups)*1e3, "ms")
	res.layer.set("traffic.entries", float64(entries), "count")
	res.layer.set("runtime.alloc_mb", allocMB, "MiB")
	res.layer.set("runtime.gc_cycles", gcs, "count")
	if !p.trace {
		return res, nil
	}

	// Traced pass: the same run with its feature extractor decorated.
	var rec *recorder
	var ext *timedExtractor
	var r *sim.Result
	var runNs int64
	var traced []float64
	for i := 0; i < tracedPasses; i++ {
		rec = newRecorder(fmt.Sprintf("bigmesh-banded/seed%d", p.seed))
		g := rec.begin("traffic.generate", -1)
		tr = bandedTrace(topo, horizon, p.seed)
		rec.end(g)
		s := rec.begin("sim.run", -1)
		ext = &timedExtractor{inner: features.NewExtractor(topo), rec: rec, parent: s}
		cfg := bigMeshConfig(topo, tr)
		cfg.Extractor = ext
		r, err = sim.Run(cfg)
		runNs = rec.end(s)
		traced = append(traced, float64(runNs)/1e9)
		if err != nil {
			return nil, err
		}
		res.attempted++
		if err := checkRun(r, entries); err != nil {
			res.fail(1, "traced: %v", err)
		}
		if d, err := resultDigest(r); err != nil {
			return nil, err
		} else if d != digest {
			res.fail(1, "traced result digest %s differs from the untraced %s", d, digest)
		}
	}
	res.rec = rec
	var tally simTally
	tally.addResult(r, topo.NumRouters())
	tally.layerMetrics(&res.layer, runNs)
	res.attempted++
	if pf := frac(tally.parallel, tally.ticks-tally.skipped); pf <= 0 {
		res.fail(1, "engagement: sim.parallel_tick_frac is %g — the sharded sweep never engaged", pf)
	}
	res.layer.set("features.collect_ns", ext.stats.perCall(), "ns")
	res.layer.set("features.calls", float64(ext.stats.calls), "count")
	res.layer.set("trace.overhead_frac", median(traced)/median(u.rawWalls())-1, "ratio")
	res.layer.set("trace.spans", float64(len(rec.spans)), "count")
	setSelfTimes(&res.layer, rec)
	return res, nil
}
