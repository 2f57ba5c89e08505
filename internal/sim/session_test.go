// Session equivalence harness: the co-sim entry point must be the same
// engine, not a lookalike. A session that schedules a trace's entries at
// their trace ticks — some up front, some only after time has already
// advanced — and then drains must produce a Result DeepEqual to Run on
// that trace, for all five paper models and Shards ∈ {1, 4}.
package sim_test

import (
	"reflect"
	"testing"

	"repro/internal/flit"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// sessionSpecMakers builds a fresh spec per run: stateful selectors
// (ML+TURBO) mutate shared counters, so Run and the session replay must
// each get a clean slate.
func sessionSpecMakers(routers int) []func() policy.Spec {
	return []func() policy.Spec{
		policy.Baseline,
		policy.PowerGated,
		func() policy.Spec { return policy.DVFSML(policy.ReactiveSelector{}) },
		func() policy.Spec { return policy.DozzNoC(policy.ReactiveSelector{}) },
		func() policy.Spec { return policy.MLTurbo(policy.ReactiveSelector{}, routers) },
	}
}

func sessionTrace(t *testing.T, topo topology.Topology) *traffic.Trace {
	t.Helper()
	p, ok := traffic.ProfileByName("fft")
	if !ok {
		t.Fatal("missing fft profile")
	}
	g := traffic.Generator{Topo: topo, Horizon: 8000, Seed: 42}
	return g.Generate(p)
}

// TestSessionReplaysTraceBitExact feeds a trace through a Session in two
// scheduling waves separated by an Advance window, drains, and requires
// the closed session's Result to DeepEqual Run's (scheduling diagnostics
// zeroed — FF window splits legitimately differ across window
// boundaries).
func TestSessionReplaysTraceBitExact(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := sessionTrace(t, topo)
	const maxTicks = 400_000
	for _, shards := range []int{1, 4} {
		for _, mkSpec := range sessionSpecMakers(topo.NumRouters()) {
			spec := mkSpec()
			cfg := sim.Config{
				Topo:           topo,
				Spec:           spec,
				LinkTicks:      2,
				Shards:         shards,
				ShardMinActive: -1,
				MaxTicks:       maxTicks,
			}
			runCfg := cfg
			runCfg.Trace = tr
			want, err := sim.Run(runCfg)
			if err != nil {
				t.Fatalf("%s/shards=%d: run: %v", spec.Name, shards, err)
			}

			cfg.Spec = mkSpec()
			sess, err := sim.NewSession(cfg)
			if err != nil {
				t.Fatalf("%s/shards=%d: session: %v", spec.Name, shards, err)
			}
			half := len(tr.Entries) / 2
			for _, en := range tr.Entries[:half] {
				if err := sess.Schedule(en.Time, en.Src, en.Dst, en.Kind); err != nil {
					t.Fatalf("%s/shards=%d: schedule: %v", spec.Name, shards, err)
				}
			}
			// Advance into the schedule, stopping no later than the first
			// not-yet-scheduled entry so the second wave is never late.
			if _, err := sess.Advance(tr.Entries[half].Time); err != nil {
				t.Fatalf("%s/shards=%d: advance: %v", spec.Name, shards, err)
			}
			for _, en := range tr.Entries[half:] {
				if err := sess.Schedule(en.Time, en.Src, en.Dst, en.Kind); err != nil {
					t.Fatalf("%s/shards=%d: schedule late: %v", spec.Name, shards, err)
				}
			}
			done, err := sess.Drain(maxTicks)
			if err != nil {
				t.Fatalf("%s/shards=%d: drain: %v", spec.Name, shards, err)
			}
			if !done {
				t.Fatalf("%s/shards=%d: session did not drain", spec.Name, shards)
			}
			snap := sess.Snapshot()
			got := sess.Close()

			if snap.StaticJ != got.StaticJ || snap.DynamicJ != got.DynamicJ {
				t.Fatalf("%s/shards=%d: snapshot energy (%g,%g) != result (%g,%g)",
					spec.Name, shards, snap.StaticJ, snap.DynamicJ, got.StaticJ, got.DynamicJ)
			}
			if snap.PacketsDelivered != got.PacketsDelivered || snap.LatencyCount != snap.PacketsDelivered {
				t.Fatalf("%s/shards=%d: snapshot counters inconsistent: %+v vs delivered %d",
					spec.Name, shards, snap, got.PacketsDelivered)
			}
			zeroSchedulingDiagnostics(want)
			zeroSchedulingDiagnostics(got)
			// The run label is metadata, not simulated hardware: a session
			// has no trace name to carry.
			want.Trace, got.Trace = "", ""
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/shards=%d: session result diverges from Run:\nsession: %+v\nrun:     %+v",
					spec.Name, shards, got, want)
			}
		}
	}
}

// TestSessionIdleAdvanceBillsTime pins the service-mode semantics Run
// never exercises: advancing an idle session still spends wall-clock
// ticks (static energy, epoch decisions) and is cheap via fast-forward.
func TestSessionIdleAdvanceBillsTime(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	sess, err := sim.NewSession(sim.Config{Topo: topo, Spec: policy.DozzNoC(policy.ReactiveSelector{})})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	before := sess.Snapshot()
	n, err := sess.Advance(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10_000 {
		t.Fatalf("advanced %d ticks, want 10000", n)
	}
	after := sess.Snapshot()
	if after.Tick != 10_000 || sess.Now() != 10_000 {
		t.Fatalf("clock at %d/%d, want 10000", after.Tick, sess.Now())
	}
	if after.StaticJ <= before.StaticJ {
		t.Fatalf("idle advance billed no static energy (%g -> %g)", before.StaticJ, after.StaticJ)
	}
	if after.DynamicJ != before.DynamicJ {
		t.Fatalf("idle advance billed dynamic energy (%g -> %g)", before.DynamicJ, after.DynamicJ)
	}
}

// TestSessionValidation covers the session's argument checks and
// post-Close behavior.
func TestSessionValidation(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	sess, err := sim.NewSession(sim.Config{Topo: topo, Spec: policy.Baseline()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.NewSession(sim.Config{Topo: topo, Spec: policy.Baseline(), Trace: sessionTrace(t, topo)}); err == nil {
		t.Fatal("session with a trace was accepted")
	}
	if err := sess.Schedule(0, 0, 0, flit.Request); err == nil {
		t.Fatal("self-send accepted")
	}
	if err := sess.Schedule(0, -1, 2, flit.Request); err == nil {
		t.Fatal("negative core accepted")
	}
	if err := sess.Schedule(0, 0, topo.NumCores(), flit.Request); err == nil {
		t.Fatal("out-of-range core accepted")
	}
	if _, err := sess.Advance(-1); err == nil {
		t.Fatal("negative advance accepted")
	}
	if _, err := sess.Advance(100); err != nil {
		t.Fatal(err)
	}
	if err := sess.Schedule(50, 0, 1, flit.Request); err == nil {
		t.Fatal("past-tick schedule accepted")
	}
	if est, err := sess.EstimateLatency(0, topo.NumCores()-1, flit.Response); err != nil || est <= 0 {
		t.Fatalf("estimate (%d, %v)", est, err)
	}
	if _, err := sess.EstimateLatency(0, -5, flit.Response); err == nil {
		t.Fatal("estimate with bad core accepted")
	}
	res := sess.Close()
	if res == nil || sess.Close() != res {
		t.Fatal("Close not idempotent")
	}
	if err := sess.Schedule(1000, 0, 1, flit.Request); err == nil {
		t.Fatal("schedule after Close accepted")
	}
	if _, err := sess.Advance(1); err == nil {
		t.Fatal("advance after Close accepted")
	}
	if _, err := sess.Drain(0); err == nil {
		t.Fatal("drain after Close accepted")
	}
}

// TestEstimateLatencyMatchesPathWalk: the estimate's hop count is the
// Manhattan distance, which must equal walking the XY path router by
// router, for every (src, dst) pair and both packet sizes.
func TestEstimateLatencyMatchesPathWalk(t *testing.T) {
	for _, topo := range []topology.Topology{topology.NewMesh(8, 8), topology.NewCMesh(4, 4)} {
		const pipeline, linkTicks = 3, 2
		sess, err := sim.NewSession(sim.Config{Topo: topo, Spec: policy.Baseline(), Pipeline: pipeline, LinkTicks: linkTicks})
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < topo.NumCores(); src++ {
			for dst := 0; dst < topo.NumCores(); dst++ {
				var hops int64
				for r := topo.RouterOf(src); r != topo.RouterOf(dst); r = topology.NextRouter(topo, r, dst) {
					hops++
				}
				for _, kind := range []flit.Kind{flit.Request, flit.Response} {
					want := (hops+1)*pipeline + hops*linkTicks + int64(kind.Flits()) - 1
					if got, err := sess.EstimateLatency(src, dst, kind); err != nil || got != want {
						t.Fatalf("%s: estimate(%d, %d, %v) = (%d, %v), want %d", topo.Name(), src, dst, kind, got, err, want)
					}
				}
			}
		}
		sess.Close()
	}
}
