// Differential fuzzing of the engine against its reference. The default
// engine (event-horizon skips, active-set deferral, sharded sweeps) must
// be bit-exact with Config.Reference (every base tick, every router, one
// shard) on every configuration: FuzzEngineVsReference decodes its input
// into a topology, a model, engine knobs, a trace and an injection
// source, runs both engines, and requires DeepEqual Results once the
// scheduling diagnostics and the run label are zeroed. The f.Add seeds
// replay the configurations the hand-enumerated equivalence suites
// covered, and those suites' tests still run them by name;
// testdata/fuzz/FuzzEngineVsReference holds regression inputs.
package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/flit"
	"repro/internal/mcsim"
	"repro/internal/ml"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Injection sources of an engineCase.
const (
	srcTrace   = iota // the engine's native trace cursor
	srcReplay         // the trace through the traffic.Replay workload
	srcMcsim          // the closed-loop mcsim multicore model (mesh only)
	srcSession        // the trace scheduled into a Session in waves
	numSources
)

// caseMaxTicks caps every run, so an input that saturates the network
// stays bounded; the seeds all drain far sooner.
const caseMaxTicks = 400_000

// engineCase is one decoded FuzzEngineVsReference input.
type engineCase struct {
	CMesh       bool
	W, H        int  // 2..8
	Model       int  // Baseline, PG, DVFS+ML, DozzNoC, ML+TURBO
	Proactive   bool // ML models: ProactiveSelector over Weights, else reactive
	Weights     [features.Count]int8
	Pipeline    int   // 1..3
	LinkTicks   int64 // 0..5
	EpochTicks  int64 // 50..2000
	PunchHops   int   // -1..3
	NoPathPunch bool
	Collect     bool // CollectDataset and CollectSeries
	Shards      int  // 1, 2 or 4
	// Trace 0 is burstyTrace; i > 0 generates traffic.Profiles()[i-1].
	// Under srcMcsim, TraceSeed seeds the model and Horizon is the
	// per-core instruction count.
	Trace     int
	TraceSeed int64 // 0..65535
	Horizon   int64 // 1000..20000
	Source    int
	// Splits are srcSession's (wave, advance) byte pairs: each schedules
	// the next slice of entries and advances part of the way to the first
	// entry still unscheduled.
	Splits []byte
}

var shardChoices = []int{1, 2, 4}

// decodeCase maps arbitrary bytes onto a valid engineCase; missing bytes
// read as zero.
func decodeCase(data []byte) engineCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	u16 := func() int64 { return int64(next()) | int64(next())<<8 }
	var c engineCase
	flags := next()
	c.CMesh = flags&1 != 0
	c.Proactive = flags&2 != 0
	c.Collect = flags&4 != 0
	c.NoPathPunch = flags&8 != 0
	c.W = 2 + int(next()%7)
	c.H = 2 + int(next()%7)
	c.Model = int(next() % 5)
	c.Pipeline = 1 + int(next()%3)
	c.LinkTicks = int64(next() % 6)
	c.EpochTicks = 50 + u16()%1951
	c.PunchHops = int(next()%5) - 1
	c.Shards = shardChoices[next()%3]
	c.Trace = int(next()) % (1 + len(traffic.Profiles()))
	c.TraceSeed = u16()
	c.Horizon = 1000 + u16()%19001
	c.Source = int(next() % numSources)
	if c.Source == srcMcsim {
		c.CMesh = false
	}
	for i := range c.Weights {
		c.Weights[i] = int8(next())
	}
	if len(data) > 0 {
		c.Splits = append([]byte(nil), data[:len(data)&^1]...)
	}
	return c
}

// encode is decodeCase's inverse for a valid case.
func (c engineCase) encode() []byte {
	var flags byte
	for i, on := range []bool{c.CMesh, c.Proactive, c.Collect, c.NoPathPunch} {
		if on {
			flags |= 1 << i
		}
	}
	shard := 0
	for i, k := range shardChoices {
		if k == c.Shards {
			shard = i
		}
	}
	ep, h := c.EpochTicks-50, c.Horizon-1000
	b := []byte{flags, byte(c.W - 2), byte(c.H - 2), byte(c.Model), byte(c.Pipeline - 1),
		byte(c.LinkTicks), byte(ep), byte(ep >> 8), byte(c.PunchHops + 1), byte(shard),
		byte(c.Trace), byte(c.TraceSeed), byte(c.TraceSeed >> 8), byte(h), byte(h >> 8),
		byte(c.Source)}
	for _, w := range c.Weights {
		b = append(b, byte(w))
	}
	return append(b, c.Splits...)
}

func (c engineCase) topo() topology.Topology {
	if c.CMesh {
		return topology.NewCMesh(c.W, c.H)
	}
	return topology.NewMesh(c.W, c.H)
}

// spec builds a fresh spec: stateful selectors (ML+TURBO) mutate their
// own counters, so every run needs its own.
func (c engineCase) spec(routers int) policy.Spec {
	var sel policy.ModeSelector = policy.ReactiveSelector{}
	if c.Proactive {
		w := make([]float64, len(c.Weights))
		for i, v := range c.Weights {
			w[i] = float64(v) / 16
		}
		sel = policy.ProactiveSelector{Model: &ml.Ridge{Weights: w}, ModelName: "fuzz"}
	}
	switch c.Model {
	case 0:
		return policy.Baseline()
	case 1:
		return policy.PowerGated()
	case 2:
		return policy.DVFSML(sel)
	case 3:
		return policy.DozzNoC(sel)
	}
	return policy.MLTurbo(sel, routers)
}

func (c engineCase) trace(topo topology.Topology) *traffic.Trace {
	if c.Trace == 0 {
		return burstyTrace(topo, c.TraceSeed, c.Horizon)
	}
	g := traffic.Generator{Topo: topo, Horizon: c.Horizon, Seed: c.TraceSeed}
	return g.Generate(traffic.Profiles()[c.Trace-1])
}

// burstyTrace generates short randomized bursts separated by idle gaps of
// tens to thousands of ticks, straddling every horizon regime: gaps
// shorter than the drain leave flits on wires, mid-size gaps land inside
// wake windows and idle-gating countdowns, and long gaps cross epoch
// boundaries.
func burstyTrace(topo topology.Topology, seed, horizon int64) *traffic.Trace {
	rng := rand.New(rand.NewSource(seed))
	nc := topo.NumCores()
	tr := &traffic.Trace{Name: "bursty", Cores: nc, Horizon: horizon}
	for t := int64(0); t < horizon; t += 40 + int64(rng.Intn(2600)) {
		for i, n := 0, 3+rng.Intn(8); i < n; i++ {
			src := rng.Intn(nc)
			dst := rng.Intn(nc)
			if dst == src {
				dst = (dst + 1) % nc
			}
			kind := flit.Request
			if rng.Intn(2) == 1 {
				kind = flit.Response
			}
			tr.Entries = append(tr.Entries, traffic.Entry{
				Time: t + int64(rng.Intn(4)), Src: src, Dst: dst, Kind: kind,
			})
		}
	}
	tr.SortEntries()
	return tr
}

// caseRun is one engine's outcome; Stats is set under srcMcsim only.
type caseRun struct {
	Res   *sim.Result
	Stats mcsim.Stats
}

// runCase runs c on the default engine through its injection source,
// or with reference set on the reference engine through the native
// trace cursor (a fresh mcsim model under srcMcsim).
func runCase(t testing.TB, c engineCase, reference bool) caseRun {
	t.Helper()
	topo := c.topo()
	cfg := sim.Config{
		Topo:           topo,
		Spec:           c.spec(topo.NumRouters()),
		Pipeline:       c.Pipeline,
		LinkTicks:      c.LinkTicks,
		EpochTicks:     c.EpochTicks,
		MaxTicks:       caseMaxTicks,
		PunchHops:      c.PunchHops,
		NoPathPunch:    c.NoPathPunch,
		CollectDataset: c.Collect,
		CollectSeries:  c.Collect,
		Shards:         c.Shards,
		ShardMinActive: -1,
		Reference:      reference,
	}
	source := c.Source
	if reference && source != srcMcsim {
		source = srcTrace
	}
	var tr *traffic.Trace
	if source != srcMcsim {
		tr = c.trace(topo)
	}
	var w *mcsim.System
	switch source {
	case srcTrace:
		cfg.Trace = tr
	case srcReplay:
		cfg.Workload = traffic.NewReplay(tr)
	case srcMcsim:
		params := mcsim.DefaultSystem(topo)
		params.Core.Instructions = c.Horizon
		params.Seed = c.TraceSeed
		var err error
		if w, err = mcsim.New(params); err != nil {
			t.Fatal(err)
		}
		cfg.Workload = w
	case srcSession:
		return caseRun{Res: runSession(t, cfg, tr.Entries, c.Splits)}
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := caseRun{Res: res}
	if w != nil {
		out.Stats = w.Stats()
	}
	return out
}

// runSession feeds entries into a Session in waves cut at the split
// points, advancing between waves no further than the first entry still
// unscheduled, then drains and closes it.
func runSession(t testing.TB, cfg sim.Config, entries []traffic.Entry, splits []byte) *sim.Result {
	t.Helper()
	sess, err := sim.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	schedule := func(ens []traffic.Entry) {
		for _, en := range ens {
			if err := sess.Schedule(en.Time, en.Src, en.Dst, en.Kind); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	for ; len(splits) >= 2 && i < len(entries); splits = splits[2:] {
		j := i + (len(entries)-i)*int(splits[0])/256
		schedule(entries[i:j])
		i = j
		if _, err := sess.Advance((entries[i].Time - sess.Now()) * int64(splits[1]) / 255); err != nil {
			t.Fatal(err)
		}
	}
	schedule(entries[i:])
	if _, err := sess.Drain(caseMaxTicks); err != nil {
		t.Fatal(err)
	}
	return sess.Close()
}

// zeroSchedulingDiagnostics clears the Result fields that describe how a
// run was scheduled (skips, deferral, concurrent sweeps, shard load)
// rather than what it computed.
func zeroSchedulingDiagnostics(r *sim.Result) {
	r.FastForwardedTicks = 0
	r.HorizonSkippedTicks = 0
	r.LazySkippedRouterTicks = 0
	r.ParallelTicks = 0
	r.ParallelLandings = 0
	r.ShardLoad = nil
	r.ShardLoadImbalance = 0
	r.ShardResplits = 0
}

// diffFields names the top-level Result fields that differ.
func diffFields(a, b *sim.Result) []string {
	var out []string
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, va.Type().Field(i).Name)
		}
	}
	return out
}

// profileTrace is the engineCase.Trace index of a named profile.
func profileTrace(name string) int {
	for i, p := range traffic.Profiles() {
		if p.Name == name {
			return i + 1
		}
	}
	panic("unknown profile " + name)
}

// engineSeed is one seed-corpus entry. Suites names the hand-enumerated
// equivalence tests (test or test/subtest) that covered its
// configuration before the fuzzer did; runSuite keeps those names
// running it.
type engineSeed struct {
	engineCase
	Suites []string
}

// engineSeeds is FuzzEngineVsReference's seed corpus: the configurations
// the hand-enumerated equivalence suites covered, plus session, cmesh
// and shallow-pipeline cases they never reached.
func engineSeeds() []engineSeed {
	// The 4x4 suite the old suites shared: ML models predict through a
	// ridge that passes the current IBU through (weight 16/16 on the last
	// feature), traces are generated at horizon 8000, seed 3.
	suite := engineCase{W: 4, H: 4, Proactive: true, Weights: [features.Count]int8{4: 16},
		Pipeline: 3, EpochTicks: 500, PunchHops: -1, Shards: 1, TraceSeed: 3, Horizon: 8000}
	var seeds []engineSeed
	add := func(c engineCase, edit func(*engineCase), suites ...string) {
		edit(&c)
		seeds = append(seeds, engineSeed{c, suites})
	}
	for _, k := range shardChoices {
		// The fast-forward suites ran one shard; the active-set suites
		// checked every shard count in each subtest.
		suites := func(sub string) []string {
			out := []string{"TestActiveSetEquivalence" + sub}
			if k == 1 {
				out = append(out, "TestFastForwardEquivalence"+sub)
			}
			return out
		}
		for m, kind := range core.AllKinds {
			// TestFastForwardEquivalence, TestActiveSetEquivalence: every
			// model on a training and a test trace.
			for _, name := range []string{"blackscholes", "fft"} {
				add(suite, func(c *engineCase) { c.Model, c.Trace, c.Shards = m, profileTrace(name), k },
					suites("/"+kind.String()+"/"+name)...)
			}
			// TestHorizonEquivalenceBursty: bursty seed 11 over 20k ticks
			// with 1- and 3-tick wires.
			for _, link := range []int64{1, 3} {
				add(suite, func(c *engineCase) {
					c.Model, c.LinkTicks, c.Shards, c.TraceSeed, c.Horizon = m, link, k, 11, 20_000
				}, fmt.Sprintf("TestHorizonEquivalenceBursty/%s/link%d/shards%d", kind, link, k))
			}
		}
		// TestFastForwardEquivalenceCollecting,
		// TestActiveSetEquivalenceCollecting: PG and DozzNoC harvesting
		// datasets and series on the training trace.
		for _, kind := range []core.ModelKind{core.KindPG, core.KindDozzNoC} {
			add(suite, func(c *engineCase) {
				c.Model, c.Trace, c.Collect, c.Shards = int(kind), profileTrace("blackscholes"), true, k
			}, suites("Collecting/"+kind.String())...)
		}
		// TestActiveSetEquivalenceClosedLoop, TestHorizonEquivalenceClosedLoop:
		// reactive DozzNoC driving mcsim, 20k instructions per core.
		add(suite, func(c *engineCase) {
			c.Model, c.Proactive, c.Source, c.Shards, c.TraceSeed, c.Horizon = 3, false, srcMcsim, k, 1, 20_000
		}, "TestActiveSetEquivalenceClosedLoop", "TestHorizonEquivalenceClosedLoop")
	}
	// TestHorizonEquivalenceBurstyFuzz: DozzNoC on bursty seeds 1-5 with
	// 3-tick wires.
	for seed := int64(1); seed <= 5; seed++ {
		add(suite, func(c *engineCase) { c.Model, c.LinkTicks, c.TraceSeed, c.Horizon = 3, 3, seed, 20_000 },
			fmt.Sprintf("TestHorizonEquivalenceBurstyFuzz/seed%d", seed))
	}
	// TestHorizonEquivalenceReplayWorkload: bursty seed 7 through
	// traffic.Replay.
	add(suite, func(c *engineCase) {
		c.Model, c.LinkTicks, c.Source, c.TraceSeed, c.Horizon = 3, 3, srcReplay, 7, 20_000
	}, "TestHorizonEquivalenceReplayWorkload")
	// Sessions: the fft trace and a bursty trace scheduled in three and
	// four waves, advancing part or all of the way to each next wave.
	add(suite, func(c *engineCase) {
		c.Model, c.Trace, c.LinkTicks, c.Source, c.Shards = 4, profileTrace("fft"), 2, srcSession, 4
		c.Splits = []byte{64, 128, 128, 255}
	})
	add(suite, func(c *engineCase) {
		c.Model, c.LinkTicks, c.Source, c.TraceSeed, c.Horizon = 1, 3, srcSession, 5, 20_000
		c.Splits = []byte{40, 255, 90, 255, 200, 100}
	})
	// Shallow pipelines, a cmesh, short epochs and partial punching.
	add(suite, func(c *engineCase) { c.Model, c.Pipeline, c.LinkTicks, c.TraceSeed, c.Horizon = 3, 1, 2, 9, 12_000 })
	add(suite, func(c *engineCase) {
		c.Model, c.Pipeline, c.LinkTicks, c.Shards, c.EpochTicks, c.PunchHops = 4, 2, 5, 2, 137, 1
		c.TraceSeed, c.Horizon = 13, 12_000
	})
	add(suite, func(c *engineCase) {
		c.CMesh, c.W, c.H, c.Model, c.LinkTicks, c.NoPathPunch, c.Shards = true, 3, 5, 3, 1, true, 2
	})
	return seeds
}

// checkCase requires the default engine to reproduce the reference
// engine bit for bit on c: every Result field but the scheduling
// diagnostics and the run label, plus mcsim's own statistics, which a
// wrong closed-loop skip would feed back into. The reference run must
// report no scheduling diagnostics at all.
func checkCase(t *testing.T, c engineCase) {
	t.Helper()
	fast, ref := runCase(t, c, false), runCase(t, c, true)
	r := ref.Res
	if diag := [...]int64{r.FastForwardedTicks, r.HorizonSkippedTicks, r.LazySkippedRouterTicks,
		r.ParallelTicks, r.ParallelLandings, r.ShardResplits}; diag != [6]int64{} {
		t.Errorf("%+v: reference run reports scheduling diagnostics %v", c, diag)
	}
	zeroSchedulingDiagnostics(fast.Res)
	zeroSchedulingDiagnostics(ref.Res)
	fast.Res.Trace, ref.Res.Trace = "", ""
	if d := diffFields(fast.Res, ref.Res); len(d) > 0 {
		t.Fatalf("%+v: default engine differs from reference in %v", c, d)
	}
	if fast.Stats != ref.Stats {
		t.Fatalf("%+v: mcsim stats differ: default %+v, reference %+v", c, fast.Stats, ref.Stats)
	}
}

// FuzzEngineVsReference runs checkCase on every decoded input.
func FuzzEngineVsReference(f *testing.F) {
	for _, s := range engineSeeds() {
		f.Add(s.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		t.Parallel() // seed corpus entries only; fuzzing runs one input per process
		checkCase(t, decodeCase(data))
	})
}

// runSuite runs, under t's name and its old subtest names, the seeds an
// equivalence suite enumerated, each through checkCase.
func runSuite(t *testing.T) {
	subs := map[string][]engineCase{}
	var order []string
	for _, s := range engineSeeds() {
		for _, name := range s.Suites {
			sub, ok := strings.CutPrefix(name, t.Name())
			if !ok || (sub != "" && sub[0] != '/') {
				continue
			}
			sub = strings.TrimPrefix(sub, "/")
			if _, seen := subs[sub]; !seen {
				order = append(order, sub)
			}
			subs[sub] = append(subs[sub], s.engineCase)
		}
	}
	if len(order) == 0 {
		t.Fatal("no seed names this suite")
	}
	for _, sub := range order {
		run := func(t *testing.T) {
			for _, c := range subs[sub] {
				checkCase(t, c)
			}
		}
		if sub == "" {
			run(t)
			continue
		}
		t.Run(sub, func(t *testing.T) {
			t.Parallel()
			run(t)
		})
	}
}

// The equivalence suites the fuzzer's seed corpus grew from, each a
// named view of its seeds.
func TestFastForwardEquivalence(t *testing.T)           { runSuite(t) }
func TestFastForwardEquivalenceCollecting(t *testing.T) { runSuite(t) }
func TestActiveSetEquivalence(t *testing.T)             { runSuite(t) }
func TestActiveSetEquivalenceCollecting(t *testing.T)   { runSuite(t) }
func TestActiveSetEquivalenceClosedLoop(t *testing.T)   { runSuite(t) }
func TestHorizonEquivalenceBursty(t *testing.T)         { runSuite(t) }
func TestHorizonEquivalenceBurstyFuzz(t *testing.T)     { runSuite(t) }
func TestHorizonEquivalenceReplayWorkload(t *testing.T) { runSuite(t) }
func TestHorizonEquivalenceClosedLoop(t *testing.T)     { runSuite(t) }

// TestEngineSeedsAreNotVacuous runs the seed corpus on the default
// engine and requires every fast path the fuzzer exists to check —
// quiescent fast-forward, non-quiescent horizon skips, active-set
// deferral and concurrent sweeps — to engage on at least one seed
// (checkCase, run on every seed by the fuzz corpus, requires the
// reference engine to report none of them). Each seed must also encode
// to bytes that decode back to itself, so the corpus means what
// engineSeeds says.
func TestEngineSeedsAreNotVacuous(t *testing.T) {
	var ff, horizon, lazy, parallel atomic.Int64
	t.Run("seeds", func(t *testing.T) {
		for i, s := range engineSeeds() {
			c := s.engineCase
			t.Run(fmt.Sprint(i), func(t *testing.T) {
				t.Parallel()
				if got := decodeCase(c.encode()); !reflect.DeepEqual(got, c) {
					t.Fatalf("seed does not round-trip:\nwant %+v\ngot  %+v", c, got)
				}
				r := runCase(t, c, false).Res
				ff.Add(r.FastForwardedTicks)
				horizon.Add(r.HorizonSkippedTicks)
				lazy.Add(r.LazySkippedRouterTicks)
				parallel.Add(r.ParallelTicks)
			})
		}
	})
	for name, n := range map[string]int64{"FastForwardedTicks": ff.Load(), "HorizonSkippedTicks": horizon.Load(),
		"LazySkippedRouterTicks": lazy.Load(), "ParallelTicks": parallel.Load()} {
		if n == 0 {
			t.Errorf("%s is 0 on every seed; the fuzzer never exercises that path", name)
		}
	}
}
