package policy

import (
	"testing"

	"repro/internal/power"
	"repro/internal/timing"
	"repro/internal/vr"
)

// fakeNet lets tests steer idleness.
type fakeNet struct {
	empty   map[int]bool
	secured map[int]bool
}

func newFakeNet() *fakeNet {
	return &fakeNet{empty: map[int]bool{}, secured: map[int]bool{}}
}

func (f *fakeNet) BuffersEmpty(r int) bool { return f.empty[r] }
func (f *fakeNet) Secured(r int) bool      { return f.secured[r] }

func TestModeForIBUThresholds(t *testing.T) {
	// Fig 3(b) threshold map.
	cases := []struct {
		ibu  float64
		want power.Mode
	}{
		{0.0, power.M3},
		{0.049, power.M3},
		{0.05, power.M4},
		{0.099, power.M4},
		{0.10, power.M5},
		{0.199, power.M5},
		{0.20, power.M6},
		{0.249, power.M6},
		{0.25, power.M7},
		{0.9, power.M7},
	}
	for _, c := range cases {
		if got := ModeForIBU(c.ibu); got != c.want {
			t.Errorf("ModeForIBU(%g) = %v, want %v", c.ibu, got, c.want)
		}
	}
}

func TestFixedSelector(t *testing.T) {
	s := FixedSelector{Mode: power.M7}
	if s.SelectMode(0, 0.9, nil) != power.M7 {
		t.Error("fixed selector must ignore inputs")
	}
	if s.Name() == "" {
		t.Error("empty name")
	}
}

func TestReactiveSelector(t *testing.T) {
	s := ReactiveSelector{}
	if s.SelectMode(0, 0.15, nil) != power.M5 {
		t.Error("reactive selector must threshold the current IBU")
	}
}

type constPredictor float64

func (c constPredictor) Predict([]float64) float64 { return float64(c) }

func TestProactiveSelector(t *testing.T) {
	s := ProactiveSelector{Model: constPredictor(0.22), ModelName: "test"}
	if got := s.SelectMode(0, 0.0, []float64{1}); got != power.M6 {
		t.Errorf("proactive = %v, want M6", got)
	}
	// Negative predictions clamp to zero -> M3.
	s = ProactiveSelector{Model: constPredictor(-0.5), ModelName: "test"}
	if got := s.SelectMode(0, 0.9, []float64{1}); got != power.M3 {
		t.Errorf("negative prediction = %v, want M3", got)
	}
}

func TestTurboSelectorEveryThirdMiddle(t *testing.T) {
	// The TURBO rule: every third middle-mode (M4-M6) pick becomes M7.
	inner := ReactiveSelector{}
	s := NewTurboSelector(inner, 4)
	var got []power.Mode
	for i := 0; i < 6; i++ {
		got = append(got, s.SelectMode(2, 0.15, nil)) // M5 territory
	}
	want := []power.Mode{power.M5, power.M5, power.M7, power.M5, power.M5, power.M7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("turbo sequence %v, want %v", got, want)
		}
	}
	// M3 and M7 picks pass through and do not advance the counter.
	if s.SelectMode(2, 0.0, nil) != power.M3 {
		t.Error("M3 must pass through")
	}
	if s.SelectMode(2, 0.9, nil) != power.M7 {
		t.Error("M7 must pass through")
	}
	if s.SelectMode(2, 0.15, nil) != power.M5 {
		t.Error("counter must not advance on M3/M7 picks")
	}
	// Counters are per router.
	if s.SelectMode(3, 0.15, nil) != power.M5 {
		t.Error("fresh router must start its own count")
	}
}

func TestSpecFactories(t *testing.T) {
	b := Baseline()
	if b.PowerGating || b.Name != "Baseline" || b.InitialMode != power.M7 {
		t.Errorf("baseline spec = %+v", b)
	}
	pg := PowerGated()
	if !pg.PowerGating || pg.TIdle != DefaultTIdle {
		t.Errorf("PG spec = %+v", pg)
	}
	lead := DVFSML(ReactiveSelector{})
	if lead.PowerGating {
		t.Error("LEAD must not power-gate")
	}
	dn := DozzNoC(ReactiveSelector{})
	if !dn.PowerGating || dn.Name != "DozzNoC" {
		t.Errorf("DozzNoC spec = %+v", dn)
	}
	tu := MLTurbo(ReactiveSelector{}, 4)
	if !tu.PowerGating {
		t.Error("TURBO must power-gate")
	}
	if _, ok := tu.Selector.(*TurboSelector); !ok {
		t.Error("TURBO selector must be wrapped")
	}
}

func TestControllerInitialState(t *testing.T) {
	c := NewController(4, Baseline())
	for r := 0; r < 4; r++ {
		if c.State(r) != Active {
			t.Fatalf("router %d starts %v", r, c.State(r))
		}
		if c.Mode(r) != power.M7 {
			t.Fatalf("router %d starts at %v", r, c.Mode(r))
		}
		if !c.CanAccept(r) {
			t.Fatal("fresh router must accept")
		}
	}
}

func TestBaselineNeverGates(t *testing.T) {
	c := NewController(1, Baseline())
	nv := newFakeNet()
	nv.empty[0] = true
	c.SetNetView(nv)
	for tick := 0; tick < 100; tick++ {
		c.SetNow(timing.Tick(tick))
		if c.Advance(0) {
			c.PostCycle(0)
		}
	}
	if c.State(0) != Active {
		t.Fatal("baseline gated a router")
	}
	if c.Stats().Gatings != 0 {
		t.Fatal("baseline recorded gatings")
	}
}

func TestGatingAfterTIdle(t *testing.T) {
	c := NewController(1, PowerGated())
	nv := newFakeNet()
	nv.empty[0] = true
	c.SetNetView(nv)
	cycles := 0
	for tick := 0; c.State(0) == Active && tick < 100; tick++ {
		c.SetNow(timing.Tick(tick))
		if c.Advance(0) {
			cycles++
			c.PostCycle(0)
		}
	}
	if c.State(0) != Inactive {
		t.Fatal("idle router never gated")
	}
	if cycles != DefaultTIdle {
		t.Fatalf("gated after %d idle cycles, want %d", cycles, DefaultTIdle)
	}
	if c.Stats().Gatings != 1 {
		t.Fatalf("gatings = %d", c.Stats().Gatings)
	}
	if c.CanAccept(0) {
		t.Fatal("gated router must not accept")
	}
}

func TestSecuredRouterNeverGates(t *testing.T) {
	c := NewController(1, PowerGated())
	nv := newFakeNet()
	nv.empty[0] = true
	nv.secured[0] = true
	c.SetNetView(nv)
	for tick := 0; tick < 50; tick++ {
		c.SetNow(timing.Tick(tick))
		if c.Advance(0) {
			c.PostCycle(0)
		}
	}
	if c.State(0) != Active {
		t.Fatal("secured router gated")
	}
}

func TestWakeupTakesTWakeupCycles(t *testing.T) {
	c := NewController(1, PowerGated())
	nv := newFakeNet()
	nv.empty[0] = true
	c.SetNetView(nv)
	tick := 0
	for ; c.State(0) == Active; tick++ {
		c.SetNow(timing.Tick(tick))
		if c.Advance(0) {
			c.PostCycle(0)
		}
	}
	gatedAt := tick
	// Stay off for a while, then punch.
	for ; tick < gatedAt+100; tick++ {
		c.SetNow(timing.Tick(tick))
		c.Advance(0)
	}
	c.SetNow(timing.Tick(tick))
	c.WakeRequest(0)
	if c.State(0) != Wakeup {
		t.Fatal("wake request did not start wakeup")
	}
	if c.CanAccept(0) {
		t.Fatal("waking router must not accept")
	}
	// The PG model wakes into M7: T-Wakeup = 18 cycles at 2.25 GHz = 18
	// base ticks.
	wakeTicks := 0
	for ; c.State(0) == Wakeup; tick++ {
		c.SetNow(timing.Tick(tick))
		c.Advance(0)
		wakeTicks++
		if wakeTicks > 100 {
			t.Fatal("wakeup never completed")
		}
	}
	want := vr.CostsFor(power.M7).TWakeup
	if wakeTicks != want {
		t.Fatalf("wakeup took %d ticks, want %d", wakeTicks, want)
	}
	if c.Stats().Wakes != 1 {
		t.Fatalf("wakes = %d", c.Stats().Wakes)
	}
}

// TestWakeStallTicksMatchesStateMachine checks WakeStallTicks against
// the controller: for a router gated in each mode, the Advance calls from
// WakeRequest until it is Active again must number WakeStallTicks(m), and
// the wake must count under its target mode.
func TestWakeStallTicksMatchesStateMachine(t *testing.T) {
	for _, m := range []power.Mode{power.M3, power.M4, power.M5, power.M6, power.M7} {
		spec := Spec{Name: "gated-" + m.String(), PowerGating: true, Selector: FixedSelector{Mode: m}, InitialMode: m}
		c := NewController(1, spec)
		nv := newFakeNet()
		nv.empty[0] = true
		c.SetNetView(nv)
		tick := 0
		for ; c.State(0) == Active; tick++ {
			if tick > 1000 {
				t.Fatalf("%v: idle router never gated", m)
			}
			c.SetNow(timing.Tick(tick))
			if c.Advance(0) {
				c.PostCycle(0)
			}
		}
		// Leave the domain mid-period so the wake's reset is what counts.
		for end := tick + 7; tick < end; tick++ {
			c.SetNow(timing.Tick(tick))
			c.Advance(0)
		}
		c.SetNow(timing.Tick(tick))
		c.WakeRequest(0)
		var stall int64
		for c.State(0) == Wakeup {
			if stall > 1000 {
				t.Fatalf("%v: wakeup never completed", m)
			}
			tick++
			c.SetNow(timing.Tick(tick))
			c.Advance(0)
			stall++
		}
		if c.State(0) != Active {
			t.Fatalf("%v: wake ended in state %v", m, c.State(0))
		}
		if want := WakeStallTicks(m); stall != want {
			t.Errorf("%v: wake stalled %d ticks, WakeStallTicks = %d", m, stall, want)
		}
		var want [power.NumActiveModes]int64
		want[m.Index()] = 1
		if got := c.Stats().WakesByMode; got != want {
			t.Errorf("%v: WakesByMode = %v, want %v", m, got, want)
		}
	}
}

func TestWakeRequestNoOpWhenAwake(t *testing.T) {
	c := NewController(1, PowerGated())
	c.SetNetView(newFakeNet())
	c.WakeRequest(0)
	if c.Stats().Wakes != 0 {
		t.Fatal("wake of an active router counted")
	}
}

func TestBreakevenAccounting(t *testing.T) {
	c := NewController(1, PowerGated())
	nv := newFakeNet()
	nv.empty[0] = true
	c.SetNetView(nv)
	// Gate, then wake after only 3 ticks off: off time (3 cycles at M7)
	// is under T-Breakeven (12 cycles at M7).
	tick := 0
	for ; c.State(0) == Active; tick++ {
		c.SetNow(timing.Tick(tick))
		if c.Advance(0) {
			c.PostCycle(0)
		}
	}
	c.SetNow(timing.Tick(tick + 3))
	c.WakeRequest(0)
	st := c.Stats()
	if st.Wakes != 1 || st.BreakevenMet != 0 {
		t.Fatalf("short gate: wakes=%d met=%d, want 1/0", st.Wakes, st.BreakevenMet)
	}

	// Second gating period: stay off 100 ticks (well past breakeven).
	for ; c.State(0) != Active; tick++ {
		c.SetNow(timing.Tick(tick))
		c.Advance(0)
	}
	for ; c.State(0) == Active; tick++ {
		c.SetNow(timing.Tick(tick))
		if c.Advance(0) {
			c.PostCycle(0)
		}
	}
	c.SetNow(timing.Tick(tick + 100))
	c.WakeRequest(0)
	st = c.Stats()
	if st.Wakes != 2 || st.BreakevenMet != 1 {
		t.Fatalf("long gate: wakes=%d met=%d, want 2/1", st.Wakes, st.BreakevenMet)
	}
}

func TestOffTicksAccumulates(t *testing.T) {
	c := NewController(1, PowerGated())
	nv := newFakeNet()
	nv.empty[0] = true
	c.SetNetView(nv)
	gatedAt := -1
	for tick := 0; gatedAt < 0; tick++ {
		c.SetNow(timing.Tick(tick))
		if c.Advance(0) {
			c.PostCycle(0)
		}
		if c.State(0) == Inactive {
			gatedAt = tick
		}
	}
	c.SetNow(timing.Tick(gatedAt + 50))
	if got := c.OffTicks(0); got != 50 {
		t.Fatalf("mid-gate off ticks = %d, want 50", got)
	}
	c.WakeRequest(0)
	c.SetNow(timing.Tick(gatedAt + 80))
	if got := c.OffTicks(0); got != 50 {
		t.Fatalf("post-wake off ticks = %d, want 50", got)
	}
}

func TestEpochBoundaryModeSwitch(t *testing.T) {
	c := NewController(1, DVFSML(ReactiveSelector{}))
	c.SetNetView(newFakeNet())
	c.SetNow(0)
	// High IBU -> M7 (already there, no switch).
	if !c.EpochBoundary(0, 0.5, nil) {
		t.Fatal("active router's boundary reported no decision")
	}
	if c.Stats().ModeSwitches != 0 {
		t.Fatal("no-op selection must not count as a switch")
	}
	// Low IBU -> M3: a switch begins; the router pauses T-Switch cycles.
	if !c.EpochBoundary(0, 0.0, nil) {
		t.Fatal("switching boundary reported no decision")
	}
	if c.Mode(0) != power.M3 {
		t.Fatalf("mode = %v, want M3", c.Mode(0))
	}
	if c.CanAccept(0) {
		t.Fatal("switching router must pause")
	}
	paused := 0
	for tick := 1; !c.CanAccept(0) && tick < 200; tick++ {
		c.SetNow(timing.Tick(tick))
		c.Advance(0)
		paused++
	}
	// T-Switch into M3 is 7 cycles of the 1 GHz clock = ceil(7*2.25) base
	// ticks paced by the accumulator.
	wantLocal := vr.CostsFor(power.M3).TSwitch
	gotLocal := int(timing.CyclesIn(timing.Tick(paused), power.FreqMHz(power.M3)))
	if gotLocal != wantLocal {
		t.Fatalf("switch paused %d base ticks = %d local cycles, want %d", paused, gotLocal, wantLocal)
	}
	st := c.Stats()
	if st.ModeSwitches != 1 || st.EpochDecisions != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ModeDecisions[power.M7.Index()] != 1 || st.ModeDecisions[power.M3.Index()] != 1 {
		t.Fatalf("decision histogram = %v", st.ModeDecisions)
	}
}

func TestEpochBoundarySkipsGatedRouters(t *testing.T) {
	c := NewController(1, DozzNoC(ReactiveSelector{}))
	nv := newFakeNet()
	nv.empty[0] = true
	c.SetNetView(nv)
	for tick := 0; c.State(0) == Active; tick++ {
		c.SetNow(timing.Tick(tick))
		if c.Advance(0) {
			c.PostCycle(0)
		}
	}
	if c.EpochBoundary(0, 0.5, nil) || c.Stats().EpochDecisions != 0 {
		t.Fatal("gated router must not run the selector (§III-B)")
	}
}

func TestBillingState(t *testing.T) {
	c := NewController(1, DozzNoC(ReactiveSelector{}))
	nv := newFakeNet()
	c.SetNetView(nv)
	if m, _ := c.BillingState(0); m != power.M7 {
		t.Fatalf("active billing = %v", m)
	}
	// Gate it.
	nv.empty[0] = true
	for tick := 0; c.State(0) == Active; tick++ {
		c.SetNow(timing.Tick(tick))
		if c.Advance(0) {
			c.PostCycle(0)
		}
	}
	if m, _ := c.BillingState(0); m != power.Inactive {
		t.Fatalf("gated billing = %v", m)
	}
	c.WakeRequest(0)
	m, target := c.BillingState(0)
	if m != power.Wakeup || target != power.M7 {
		t.Fatalf("waking billing = %v into %v", m, target)
	}
}

func TestSwitchBillsHigherMode(t *testing.T) {
	c := NewController(1, DVFSML(ReactiveSelector{}))
	c.SetNetView(newFakeNet())
	c.SetNow(0)
	c.EpochBoundary(0, 0.0, nil) // M7 -> M3: bill at the old, higher mode
	if m, _ := c.BillingState(0); m != power.M7 {
		t.Fatalf("down-switch billing = %v, want M7", m)
	}
	// Finish the switch, then switch back up: bill at the new mode.
	for tick := 1; !c.CanAccept(0); tick++ {
		c.SetNow(timing.Tick(tick))
		c.Advance(0)
	}
	c.EpochBoundary(0, 0.5, nil) // M3 -> M7
	if m, _ := c.BillingState(0); m != power.M7 {
		t.Fatalf("up-switch billing = %v, want M7", m)
	}
}

func TestStateString(t *testing.T) {
	if Active.String() != "active" || Inactive.String() != "inactive" || Wakeup.String() != "wakeup" {
		t.Error("state strings wrong")
	}
	if State(9).String() == "" {
		t.Error("unknown state empty")
	}
}

func TestDomainSlowsWithMode(t *testing.T) {
	// After switching to M3, Advance fires local cycles at 1000/2250 of
	// base ticks.
	c := NewController(1, DVFSML(ReactiveSelector{}))
	c.SetNetView(newFakeNet())
	c.SetNow(0)
	c.EpochBoundary(0, 0.0, nil) // go to M3
	fired := 0
	const n = 2250
	for tick := 1; tick <= n; tick++ {
		c.SetNow(timing.Tick(tick))
		if c.Advance(0) {
			fired++
		}
	}
	// All local cycles count (the first few are eaten by T-Switch).
	want := int(timing.CyclesIn(n, power.FreqMHz(power.M3))) - vr.CostsFor(power.M3).TSwitch
	if fired < want-1 || fired > want+1 {
		t.Fatalf("M3 router fired %d cycles in %d ticks, want ~%d", fired, n, want)
	}
}

func TestGlobalSelectorAdoptsNetworkMax(t *testing.T) {
	g := NewGlobalSelector(ReactiveSelector{})
	// Epoch 1: routers 0..3 report IBUs mapping to M3,M3,M6,M3; everyone
	// still runs the initial M7 (no prior epoch).
	ibus := []float64{0.0, 0.0, 0.22, 0.0}
	for r, ibu := range ibus {
		if got := g.SelectMode(r, ibu, nil); got != power.M7 {
			t.Fatalf("epoch 1 router %d = %v, want initial M7", r, got)
		}
	}
	// Epoch 2: everyone adopts epoch 1's max (M6).
	for r := range ibus {
		if got := g.SelectMode(r, 0.0, nil); got != power.M6 {
			t.Fatalf("epoch 2 router %d = %v, want M6", r, got)
		}
	}
	// Epoch 3: epoch 2 was all-M3, so everyone drops to M3.
	for r := range ibus {
		if got := g.SelectMode(r, 0.0, nil); got != power.M3 {
			t.Fatalf("epoch 3 router %d = %v, want M3", r, got)
		}
	}
}

func TestGlobalSelectorName(t *testing.T) {
	if NewGlobalSelector(ReactiveSelector{}).Name() != "global(reactive)" {
		t.Error("name wrong")
	}
}

// requireDormant checks Dormant against its documented equivalence with
// TicksToNextEvent == NoEvent.
func requireDormant(t *testing.T, c *Controller, r int, want bool, when string) {
	t.Helper()
	if got := c.Dormant(r); got != want {
		t.Fatalf("%s: Dormant = %v, want %v", when, got, want)
	}
	if ev := c.TicksToNextEvent(r); (ev == NoEvent) != want {
		t.Fatalf("%s: TicksToNextEvent = %d disagrees with Dormant = %v", when, ev, want)
	}
}

// TestDormant walks a router through every power state and checks the
// active-set deferral predicate: dormant exactly when no autonomous
// transition is pending, and always in agreement with TicksToNextEvent.
func TestDormant(t *testing.T) {
	// A non-gating spec: an Active router outside a switch sits still
	// forever.
	c := NewController(1, Baseline())
	c.SetNetView(newFakeNet())
	requireDormant(t, c, 0, true, "baseline fresh")

	// A gating spec: the idle countdown is a pending transition, so an
	// Active router is never dormant; Inactive is terminal-until-woken,
	// so it is; Wakeup counts down, so it is not.
	c = NewController(1, PowerGated())
	nv := newFakeNet()
	nv.empty[0] = true
	c.SetNetView(nv)
	requireDormant(t, c, 0, false, "gating active")
	for tick := 0; c.State(0) == Active; tick++ {
		c.SetNow(timing.Tick(tick))
		if c.Advance(0) {
			c.PostCycle(0)
		}
	}
	requireDormant(t, c, 0, true, "gated")
	c.WakeRequest(0)
	requireDormant(t, c, 0, false, "waking")
	for tick := DefaultTIdle + 1; c.State(0) == Wakeup; tick++ {
		c.SetNow(timing.Tick(tick))
		c.Advance(0)
	}
	requireDormant(t, c, 0, false, "re-active after wake")

	// A DVFS spec mid-switch: the voltage-switch pause is a pending
	// transition; dormancy returns once it completes.
	c = NewController(1, DVFSML(FixedSelector{Mode: power.M3}))
	c.SetNetView(newFakeNet())
	requireDormant(t, c, 0, true, "dvfs fresh")
	c.EpochBoundary(0, 0, nil)
	requireDormant(t, c, 0, false, "mid voltage switch")
	for tick := 0; !c.Dormant(0) && tick < 10_000; tick++ {
		c.SetNow(timing.Tick(tick))
		c.Advance(0)
	}
	requireDormant(t, c, 0, true, "switch complete")
	if c.Mode(0) != power.M3 {
		t.Fatalf("mode after switch = %v, want M3", c.Mode(0))
	}
}
