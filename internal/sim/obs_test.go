// Observability-layer integration tests: a sharded run's folded metrics
// must equal the serial run's totals, the counts the obs fold reads from the
// engine and the controller must reach the snapshot intact (it agrees
// with Result's diagnostics and policy.Stats), the engine-phase tracer
// must emit valid Chrome trace_event JSONL covering the
// sweep/landing/barrier phases, and sourcing the per-epoch series
// through obs must leave the figure pipeline's CSV bytes untouched.
package sim_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// runObserved executes one banded sharded configuration with a fresh
// Metrics attached and the parallel-sweep threshold floored.
func runObserved(t *testing.T, shards int, linkTicks int64, tracer *obs.Tracer) (*sim.Result, *obs.Metrics) {
	t.Helper()
	topo := topology.NewMesh(8, 16)
	observer := &obs.Observer{Metrics: obs.NewMetrics(), Tracer: tracer}
	res, err := sim.Run(sim.Config{
		Topo:           topo,
		Spec:           policy.DozzNoC(policy.ReactiveSelector{}),
		Trace:          bandedTrace(topo, 20_000),
		LinkTicks:      linkTicks,
		Shards:         shards,
		ShardMinActive: -1,
		Obs:            observer,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, observer.Metrics
}

// observedSession opens a session on the banded configuration of
// runObserved — a fresh Metrics attached, the parallel-sweep threshold
// floored — with the whole trace already scheduled.
func observedSession(t *testing.T, topo topology.Topology, tr *traffic.Trace, shards int) (*sim.Session, *obs.Metrics) {
	t.Helper()
	m := obs.NewMetrics()
	sess, err := sim.NewSession(sim.Config{
		Topo:           topo,
		Spec:           policy.DozzNoC(policy.ReactiveSelector{}),
		Shards:         shards,
		ShardMinActive: -1,
		Obs:            &obs.Observer{Metrics: m},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, en := range tr.Entries {
		if err := sess.Schedule(en.Time, en.Src, en.Dst, en.Kind); err != nil {
			t.Fatal(err)
		}
	}
	return sess, m
}

// TestObsLaneFoldMatchesSerial: a Shards=4 run's folded totals — events
// counted in the controller's per-shard stats lanes and the shards'
// counters during concurrent sweeps — must equal the Shards=1 run's. Both
// runs are sessions drained one epoch window at a time, so every fold's
// rollup is compared through LastEpoch as it happens.
func TestObsLaneFoldMatchesSerial(t *testing.T) {
	topo := topology.NewMesh(8, 16)
	tr := bandedTrace(topo, 20_000)
	serialS, serialM := observedSession(t, topo, tr, 1)
	shardedS, shardedM := observedSession(t, topo, tr, 4)

	// The per-epoch rollup deltas must sum back to the totals they were
	// drained from — and epoch for epoch the two runs must agree.
	var g, w, ms, lz, epochs int64
	for drained := false; !drained; {
		var err error
		if drained, err = serialS.Drain(sim.DefaultEpochTicks); err != nil {
			t.Fatal(err)
		}
		shardedDrained, err := shardedS.Drain(sim.DefaultEpochTicks)
		if err != nil {
			t.Fatal(err)
		}
		now := serialS.Now()
		if shardedDrained != drained || shardedS.Now() != now {
			t.Fatalf("sessions diverged: serial drained=%v at %d, sharded drained=%v at %d",
				drained, now, shardedDrained, shardedS.Now())
		}
		if now > 10*tr.Horizon {
			t.Fatalf("banded trace not drained by tick %d", now)
		}
		sn, pn := serialM.Snapshot().Epochs, shardedM.Snapshot().Epochs
		if sn != pn {
			t.Fatalf("epoch rollup counts differ at tick %d: serial %d, sharded %d", now, sn, pn)
		}
		switch sn - epochs {
		case 0:
			continue
		case 1:
		default:
			t.Fatalf("window ending at tick %d folded %d epochs; only the last is visible", now, sn-epochs)
		}
		se, pe := serialM.LastEpoch(), shardedM.LastEpoch()
		if pe.Tick != se.Tick || pe.Gatings != se.Gatings || pe.Wakes != se.Wakes ||
			pe.ModeSwitches != se.ModeSwitches || pe.AvgIBU != se.AvgIBU ||
			pe.ResidencyDelta != se.ResidencyDelta ||
			pe.StaticJDelta != se.StaticJDelta || pe.DynamicJDelta != se.DynamicJDelta {
			t.Fatalf("epoch %d rollup differs:\nsharded: %+v\nserial:  %+v", epochs, pe, se)
		}
		epochs++
		g += pe.Gatings
		w += pe.Wakes
		ms += pe.ModeSwitches
		lz += pe.LazyTicks
	}
	if epochs == 0 {
		t.Fatal("no epoch folded; the rollup comparison is vacuous")
	}

	serialRes, shardedRes := serialS.Close(), shardedS.Close()
	serial, sharded := serialM.Snapshot(), shardedM.Snapshot()
	if shardedRes.ParallelTicks == 0 {
		t.Fatal("Shards=4 never swept concurrently; the lane-fold check is vacuous")
	}
	if serialRes.ParallelTicks != 0 {
		t.Fatalf("Shards=1 counted %d parallel ticks", serialRes.ParallelTicks)
	}
	if serial.Gatings == 0 || serial.Wakes == 0 || serial.ModeSwitches == 0 {
		t.Fatalf("serial run saw no events to fold: %+v", serial)
	}
	if sharded.Epochs != serial.Epochs || sharded.Epochs < epochs ||
		sharded.Gatings != serial.Gatings ||
		sharded.Wakes != serial.Wakes ||
		sharded.WakeOffTicks != serial.WakeOffTicks ||
		sharded.ModeSwitches != serial.ModeSwitches ||
		sharded.EpochDecisions != serial.EpochDecisions ||
		sharded.LazyTicks != serial.LazyTicks ||
		sharded.ResidencyTicks != serial.ResidencyTicks {
		t.Errorf("sharded lane fold differs from serial:\nsharded: %+v\nserial:  %+v", sharded, serial)
	}
	// Totals may exceed the epoch sums only by the post-boundary
	// remainder folded at FinishRun; for these drained counters the final
	// partial epoch still folds, so the sums must not exceed the totals.
	if g > sharded.Gatings || w > sharded.Wakes || ms > sharded.ModeSwitches || lz > sharded.LazyTicks {
		t.Errorf("epoch deltas overrun totals: g=%d/%d w=%d/%d ms=%d/%d lz=%d/%d",
			g, sharded.Gatings, w, sharded.Wakes, ms, sharded.ModeSwitches, lz, sharded.LazyTicks)
	}
}

// TestObsMirrorsEngineDiagnostics checks the fold plumbing: the engine
// and the controller are the only stores of their counts, and the obs
// snapshot derived from them at the final fold must equal the Result
// diagnostics and policy.Stats read from the same stores, on a run that
// exercises every accelerated path (concurrent sweeps, parallel wire
// landings, lazy deferral).
func TestObsMirrorsEngineDiagnostics(t *testing.T) {
	res, m := runObserved(t, 4, 2, nil)
	snap := m.Snapshot()
	if res.ParallelTicks == 0 || res.ParallelLandings == 0 || res.LazySkippedRouterTicks == 0 {
		t.Fatalf("accelerated paths did not all engage: parallel=%d landings=%d lazy=%d",
			res.ParallelTicks, res.ParallelLandings, res.LazySkippedRouterTicks)
	}
	if snap.ParallelTicks != res.ParallelTicks {
		t.Errorf("obs ParallelTicks %d != Result %d", snap.ParallelTicks, res.ParallelTicks)
	}
	if snap.ParallelLandings != res.ParallelLandings {
		t.Errorf("obs ParallelLandings %d != Result %d", snap.ParallelLandings, res.ParallelLandings)
	}
	if snap.FastForwardedTicks != res.FastForwardedTicks {
		t.Errorf("obs FastForwardedTicks %d != Result %d", snap.FastForwardedTicks, res.FastForwardedTicks)
	}
	if snap.HorizonSkippedTicks != res.HorizonSkippedTicks {
		t.Errorf("obs HorizonSkippedTicks %d != Result %d", snap.HorizonSkippedTicks, res.HorizonSkippedTicks)
	}
	if snap.LazyTicks != res.LazySkippedRouterTicks {
		t.Errorf("obs LazyTicks %d != Result %d", snap.LazyTicks, res.LazySkippedRouterTicks)
	}
	if snap.Gatings != res.Policy.Gatings {
		t.Errorf("obs Gatings %d != policy %d", snap.Gatings, res.Policy.Gatings)
	}
	if snap.Wakes != res.Policy.Wakes {
		t.Errorf("obs Wakes %d != policy %d", snap.Wakes, res.Policy.Wakes)
	}
	if (snap.WakeOffTicks > 0) != (snap.Wakes > 0) {
		t.Errorf("obs WakeOffTicks %d with %d wakes", snap.WakeOffTicks, snap.Wakes)
	}
	// The wake-stall histogram is derived from the per-mode wake counts;
	// its sum may exceed the metered wakeup residency only by the wakes
	// still charging when the run ends, at most one per router.
	if snap.WakeStallHist.Count != res.Policy.Wakes {
		t.Errorf("obs WakeStallHist.Count %d != policy Wakes %d", snap.WakeStallHist.Count, res.Policy.Wakes)
	}
	var maxStall int64
	for m := power.MinActive; m <= power.MaxActive; m++ {
		maxStall = max(maxStall, policy.WakeStallTicks(m))
	}
	routers := int64(len(res.RouterOffFraction)) // one entry per router
	if gap := snap.WakeStallHist.Sum - snap.WakeStallTicks(); gap < 0 || gap > routers*maxStall {
		t.Errorf("obs WakeStallHist.Sum %d - metered wakeup ticks %d = %d, want within [0, %d routers x %d]",
			snap.WakeStallHist.Sum, snap.WakeStallTicks(), gap, routers, maxStall)
	}
	if snap.ModeSwitches != res.Policy.ModeSwitches {
		t.Errorf("obs ModeSwitches %d != policy %d", snap.ModeSwitches, res.Policy.ModeSwitches)
	}
	if snap.EpochDecisions != res.Policy.EpochDecisions {
		t.Errorf("obs EpochDecisions %d != policy %d", snap.EpochDecisions, res.Policy.EpochDecisions)
	}
	if snap.DecisionsByMode != res.Policy.ModeDecisions {
		t.Errorf("obs DecisionsByMode %v != policy ModeDecisions %v", snap.DecisionsByMode, res.Policy.ModeDecisions)
	}
	var sweeps int64
	for _, n := range snap.ShardSweeps {
		sweeps += n
	}
	if sweeps == 0 {
		t.Error("no per-shard sweeps recorded")
	}
	if len(snap.ShardSweeps) != len(res.ShardLoad) {
		t.Fatalf("obs has %d shard sweep counts, Result %d shard loads", len(snap.ShardSweeps), len(res.ShardLoad))
	}
	for si, load := range res.ShardLoad {
		if load > 0 && snap.ShardSweeps[si] == 0 {
			t.Errorf("shard %d stepped %d router-ticks but obs counts no sweep of it", si, load)
		}
	}
	if snap.Tick != res.Ticks {
		t.Errorf("obs Tick %d != Result.Ticks %d", snap.Tick, res.Ticks)
	}
}

// traceEvent is the subset of the Chrome trace_event schema the tests
// decode.
type traceEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	PID  int    `json:"pid"`
	TID  int    `json:"tid"`
	Args struct {
		Reason string `json:"reason"`
	} `json:"args"`
}

// decodeTrace parses a tracer's JSONL output.
func decodeTrace(t *testing.T, buf *bytes.Buffer) []traceEvent {
	t.Helper()
	var evs []traceEvent
	sc := bufio.NewScanner(buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev traceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", len(evs)+1, err, sc.Text())
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestObsTraceJSONL runs a Shards=4 configuration with tracing on and
// checks the output is valid JSONL Chrome trace events covering the
// engine's sweep, landing and barrier phases.
func TestObsTraceJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	res, _ := runObserved(t, 4, 2, tr)
	if res.ParallelTicks == 0 || res.ParallelLandings == 0 {
		t.Fatalf("parallel paths did not engage: ticks=%d landings=%d", res.ParallelTicks, res.ParallelLandings)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	evs := decodeTrace(t, &buf)
	for _, ev := range evs {
		switch ev.Ph {
		case "X":
			if ev.Dur <= 0 {
				t.Fatalf("complete span with non-positive dur: %+v", ev)
			}
		case "i", "M":
		default:
			t.Fatalf("unexpected event phase %q: %+v", ev.Ph, ev)
		}
		if ev.Ph != "M" && ev.TS < 0 {
			t.Fatalf("negative timestamp: %+v", ev)
		}
		if ev.PID != 1 {
			t.Fatalf("unexpected pid: %+v", ev)
		}
		seen[ev.Name]++
	}
	if len(evs) == 0 {
		t.Fatal("tracer emitted nothing")
	}
	for _, name := range []string{"parallel-tick", "sweep", "land", "catch-up-barrier", "epoch", "thread_name", "process_name"} {
		if seen[name] == 0 {
			t.Errorf("trace is missing %q events (saw %v)", name, seen)
		}
	}
}

// TestObsTraceSerialReasons traces a Shards=4 run on the asymmetric
// geometry of BenchmarkHotspot/asym-fixed: both busy bands (router rows
// 0-1 and 6-7 of a 16x32 mesh) sit in the first shard of the even split.
// The lower band rides the first boundary's margin, so the run must
// fall back to serial sweeps tagged margin-not-inert, and every
// serial-sweep span must carry one of parallelOK's reasons.
func TestObsTraceSerialReasons(t *testing.T) {
	topo := topology.NewMesh(16, 32)
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	if _, err := sim.Run(sim.Config{
		Topo:           topo,
		Spec:           policy.DozzNoC(policy.ReactiveSelector{}),
		Trace:          twoBandTrace(topo, 5_000, 0, 6),
		Shards:         4,
		ShardMinActive: -1,
		Obs:            &obs.Observer{Tracer: tr},
	}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	ticks := map[string]int64{}
	for _, ev := range decodeTrace(t, &buf) {
		if ev.Name == "serial-sweep" {
			ticks[ev.Args.Reason] += ev.Dur
		}
	}
	for reason := range ticks {
		switch reason {
		case "single-shard", "below-min-active", "margin-not-inert":
		default:
			t.Errorf("serial-sweep span with unknown reason %q", reason)
		}
	}
	if ticks["margin-not-inert"] == 0 {
		t.Errorf("no serial-sweep span tagged margin-not-inert (ticks per reason: %v)", ticks)
	}
}

// TestObsSeriesGoldenCSV is the figure-pipeline regression: the
// per-epoch series now flows through obs.Metrics.FoldEpoch, and its CSV
// export must stay byte-identical to the golden file pinned before the
// relocation — with no observer (the engine's internal Metrics), and
// with an explicitly attached one.
func TestObsSeriesGoldenCSV(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "series_golden.csv"))
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.NewMesh(4, 4)
	tr := traffic.Synthetic(topo, traffic.UniformRandom, 0.01, 5000, 2)
	for _, attach := range []bool{false, true} {
		cfg := sim.Config{
			Topo:          topo,
			Spec:          policy.DozzNoC(policy.ReactiveSelector{}),
			Trace:         tr,
			CollectSeries: true,
		}
		var observer *obs.Observer
		if attach {
			observer = obs.New()
			cfg.Obs = observer
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Series.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Errorf("attach=%v: series CSV differs from golden:\ngot:\n%s\nwant:\n%s", attach, buf.Bytes(), golden)
		}
		if attach && observer.Metrics.Series() != res.Series {
			t.Error("Result.Series is not the attached observer's series")
		}
	}
}
