// Package policy implements DozzNoC's power-management layer (§III-B):
// the per-router state machine over the inactive / wakeup / active states
// (Fig 3a), the threshold-based DVFS mode map (Fig 3b), and the five
// compared models — Baseline, PG (Power-Punch-like), DVFS+ML (LEAD-tau),
// DozzNoC (ML+PG+DVFS) and ML+TURBO — expressed as a power-gating flag
// plus a mode selector.
package policy

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/timing"
	"repro/internal/vr"
)

// State is the coarse power state of a router.
type State uint8

const (
	// Active: powered at one of the five V/F modes; may move flits unless
	// paused mid voltage switch.
	Active State = iota
	// Inactive: power-gated at 0 V; may not send, receive or hop flits.
	Inactive
	// Wakeup: charging back to Vdd; consumes active-state power but may
	// not move flits until T-Wakeup elapses.
	Wakeup
)

// String renders a state.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Inactive:
		return "inactive"
	case Wakeup:
		return "wakeup"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// DefaultTIdle is the consecutive-idle-cycle threshold before gating; the
// paper adopts T-Idle = 4 from Catnap.
const DefaultTIdle = 4

// ModeForIBU maps a (predicted) input-buffer utilization fraction to the
// active mode per Fig 3(b): <5% -> M3, 5-10% -> M4, 10-20% -> M5,
// 20-25% -> M6, >25% -> M7.
func ModeForIBU(ibu float64) power.Mode {
	switch {
	case ibu < 0.05:
		return power.M3
	case ibu < 0.10:
		return power.M4
	case ibu < 0.20:
		return power.M5
	case ibu < 0.25:
		return power.M6
	default:
		return power.M7
	}
}

// ModeSelector chooses the active V/F mode for a router at each epoch
// boundary. Implementations may keep per-router state keyed by routerID.
type ModeSelector interface {
	// Name identifies the selector for reports.
	Name() string
	// SelectMode picks the mode for the next epoch. ibu is the measured
	// IBU of the closing epoch; feats is the Table IV feature vector
	// (nil for non-ML selectors).
	SelectMode(routerID int, ibu float64, feats []float64) power.Mode
}

// FixedSelector always returns one mode (Baseline and PG use M7).
type FixedSelector struct{ Mode power.Mode }

// Name implements ModeSelector.
func (s FixedSelector) Name() string { return fmt.Sprintf("fixed-%v", s.Mode) }

// SelectMode implements ModeSelector.
func (s FixedSelector) SelectMode(int, float64, []float64) power.Mode { return s.Mode }

// ReactiveSelector applies the threshold map to the *current* IBU — the
// reactive variant used to harvest ML training data (§III-D).
type ReactiveSelector struct{}

// Name implements ModeSelector.
func (ReactiveSelector) Name() string { return "reactive" }

// SelectMode implements ModeSelector.
func (ReactiveSelector) SelectMode(_ int, ibu float64, _ []float64) power.Mode {
	return ModeForIBU(ibu)
}

// Predictor predicts the next epoch's IBU from a feature vector; the ml
// package's trained Ridge models satisfy it.
type Predictor interface {
	Predict(feats []float64) float64
}

// ProactiveSelector thresholds a predicted future IBU (the ML path).
type ProactiveSelector struct {
	Model     Predictor
	ModelName string
}

// Name implements ModeSelector.
func (s ProactiveSelector) Name() string { return "proactive-" + s.ModelName }

// SelectMode implements ModeSelector.
func (s ProactiveSelector) SelectMode(_ int, _ float64, feats []float64) power.Mode {
	p := s.Model.Predict(feats)
	if p < 0 {
		p = 0
	}
	return ModeForIBU(p)
}

// TurboSelector wraps another selector with the ML+TURBO rule: every third
// time the inner selector picks a middle mode (anything other than M3 or
// M7), M7 is chosen instead for the next epoch.
type TurboSelector struct {
	Inner    ModeSelector
	counters []int
}

// NewTurboSelector builds a TurboSelector over numRouters routers.
func NewTurboSelector(inner ModeSelector, numRouters int) *TurboSelector {
	return &TurboSelector{Inner: inner, counters: make([]int, numRouters)}
}

// Name implements ModeSelector.
func (s *TurboSelector) Name() string { return "turbo(" + s.Inner.Name() + ")" }

// SelectMode implements ModeSelector.
func (s *TurboSelector) SelectMode(routerID int, ibu float64, feats []float64) power.Mode {
	m := s.Inner.SelectMode(routerID, ibu, feats)
	if m == power.M3 || m == power.M7 {
		return m
	}
	s.counters[routerID]++
	if s.counters[routerID]%3 == 0 {
		return power.M7
	}
	return m
}

// Spec describes one of the compared models.
type Spec struct {
	Name        string
	PowerGating bool
	Selector    ModeSelector
	InitialMode power.Mode
	TIdle       int
}

// withDefaults fills zero fields.
func (s Spec) withDefaults() Spec {
	if s.InitialMode == 0 {
		s.InitialMode = power.M7
	}
	if s.TIdle == 0 {
		s.TIdle = DefaultTIdle
	}
	if s.Selector == nil {
		s.Selector = FixedSelector{Mode: power.MaxActive}
	}
	return s
}

// Baseline returns the always-on, always-M7 model.
func Baseline() Spec {
	return Spec{Name: "Baseline", Selector: FixedSelector{Mode: power.MaxActive}}.withDefaults()
}

// PowerGated returns the Power-Punch-like model: gating enabled, active
// routers pinned at M7.
func PowerGated() Spec {
	return Spec{Name: "PG", PowerGating: true, Selector: FixedSelector{Mode: power.MaxActive}}.withDefaults()
}

// DVFSML returns the LEAD-tau comparison model: DVFS with the given
// selector, no power-gating.
func DVFSML(sel ModeSelector) Spec {
	return Spec{Name: "DVFS+ML", Selector: sel}.withDefaults()
}

// DozzNoC returns the proposed model: power-gating plus DVFS with the
// given selector.
func DozzNoC(sel ModeSelector) Spec {
	return Spec{Name: "DozzNoC", PowerGating: true, Selector: sel}.withDefaults()
}

// MLTurbo returns the ML+TURBO experimental model.
func MLTurbo(sel ModeSelector, numRouters int) Spec {
	return Spec{Name: "ML+TURBO", PowerGating: true, Selector: NewTurboSelector(sel, numRouters)}.withDefaults()
}

// IBUPredictor is optionally implemented by selectors that derive their
// mode from a predicted IBU (the ML path); it lets the engine record
// predicted-vs-actual accuracy without re-deriving the model.
type IBUPredictor interface {
	PredictIBU(routerID int, ibu float64, feats []float64) float64
}

// PredictIBU implements IBUPredictor: the clamped model prediction that
// SelectMode thresholds.
func (s ProactiveSelector) PredictIBU(_ int, _ float64, feats []float64) float64 {
	p := s.Model.Predict(feats)
	if p < 0 {
		p = 0
	}
	return p
}

// PredictIBU implements IBUPredictor by delegating to the wrapped
// selector (the TURBO override changes the mode, not the prediction).
func (s *TurboSelector) PredictIBU(routerID int, ibu float64, feats []float64) float64 {
	if p, ok := s.Inner.(IBUPredictor); ok {
		return p.PredictIBU(routerID, ibu, feats)
	}
	return ibu
}

// NetView is the controller's window into the network (idleness inputs).
type NetView interface {
	// BuffersEmpty reports whether the router's input buffers are empty.
	BuffersEmpty(routerID int) bool
	// Secured reports whether the router holds downstream-securing or
	// injection claims (it may not power off while secured).
	Secured(routerID int) bool
}

// routerPM is the per-router power-management state.
type routerPM struct {
	state      State
	mode       power.Mode // selected active mode (wake target while gated)
	domain     *timing.Domain
	wakeLeft   int        // local cycles left in Wakeup
	switchLeft int        // local cycles left paused for a voltage switch
	switchBill power.Mode // mode billed during the switch (max of old/new)
	idleCycles int
	offSince   timing.Tick
}

// Stats aggregates controller activity for one run.
type Stats struct {
	Gatings int64 // Active -> Inactive transitions
	Wakes   int64 // Inactive -> Wakeup transitions
	// WakesByMode splits Wakes by wake target mode (index M3..M7); every
	// wake into mode m stalls WakeStallTicks(m), so it is the whole
	// wake-stall distribution. It stays out of JSON: the repository
	// benchmark's pinned digests hash result rows that carry Stats.
	WakesByMode    [power.NumActiveModes]int64 `json:"-"`
	BreakevenMet   int64                       // wakes whose off time met T-Breakeven
	ModeSwitches   int64                       // active-mode changes
	ModeDecisions  [power.NumActiveModes]int64 // selector outcomes (Fig 7)
	EpochDecisions int64
}

// Controller drives the per-router PM state machines for one model.
//
// All per-router state (pm, offAcc) is owned by whichever engine shard
// owns the router: during a concurrent sweep only that shard's goroutine
// may call WakeRequest/Advance/FastForward/PostCycle for it. The activity
// counters are the one piece of cross-router shared state, so they are
// kept per stats lane (one lane per shard, see SetStatsLanes) and summed
// on read.
type Controller struct {
	spec   Spec
	pm     []routerPM
	nv     NetView
	now    timing.Tick
	stats  []Stats // one entry per stats lane, indexed by lane
	lane   []uint8 // stats lane of each router
	offAcc []int64 // cumulative off ticks per router (Table IV feature 4)
}

// NewController builds a controller for numRouters routers.
func NewController(numRouters int, spec Spec) *Controller {
	spec = spec.withDefaults()
	c := &Controller{
		spec:   spec,
		pm:     make([]routerPM, numRouters),
		stats:  make([]Stats, 1),
		lane:   make([]uint8, numRouters),
		offAcc: make([]int64, numRouters),
	}
	for i := range c.pm {
		c.pm[i] = routerPM{
			state:  Active,
			mode:   spec.InitialMode,
			domain: timing.NewDomain(power.FreqMHz(spec.InitialMode)),
		}
	}
	return c
}

// SetStatsLanes splits the activity counters into lanes stats lanes so
// concurrent sweeps never write the same counter word: router r accrues
// into lane shardOf[r]. The engine passes its router→shard map, which the
// controller keeps and only reads. Counter placement does not affect the
// summed Stats, so lane layout is invisible to results.
func (c *Controller) SetStatsLanes(shardOf []uint8, lanes int) {
	if len(shardOf) != len(c.pm) {
		panic("policy: stats lane map does not cover every router")
	}
	c.stats = make([]Stats, lanes)
	c.lane = shardOf
}

// SetNetView attaches the network view; required before Advance.
func (c *Controller) SetNetView(nv NetView) { c.nv = nv }

// Spec returns the model specification.
func (c *Controller) Spec() Spec { return c.spec }

// Stats returns accumulated statistics, summed across stats lanes.
func (c *Controller) Stats() Stats {
	var s Stats
	for i := range c.stats {
		l := &c.stats[i]
		s.Gatings += l.Gatings
		s.Wakes += l.Wakes
		for m := range l.WakesByMode {
			s.WakesByMode[m] += l.WakesByMode[m]
		}
		s.BreakevenMet += l.BreakevenMet
		s.ModeSwitches += l.ModeSwitches
		s.EpochDecisions += l.EpochDecisions
		for m := range l.ModeDecisions {
			s.ModeDecisions[m] += l.ModeDecisions[m]
		}
	}
	return s
}

// State returns a router's power state.
func (c *Controller) State(routerID int) State { return c.pm[routerID].state }

// Mode returns a router's selected active mode (the wake target while
// gated).
func (c *Controller) Mode(routerID int) power.Mode { return c.pm[routerID].mode }

// OffTicks returns cumulative base ticks router routerID has spent gated,
// including the current gating period.
func (c *Controller) OffTicks(routerID int) int64 {
	t := c.offAcc[routerID]
	if c.pm[routerID].state == Inactive {
		t += int64(c.now - c.pm[routerID].offSince)
	}
	return t
}

// EndedOffTicks returns the summed lengths of every gating period a wake
// has ended, over all routers: the gated time that bought a wake. Call
// it with no concurrent sweep in flight (offAcc is shard-owned).
func (c *Controller) EndedOffTicks() int64 {
	var t int64
	for _, a := range c.offAcc {
		t += a
	}
	return t
}

// BillingState returns the mode to bill static power at for this tick and,
// when waking, the wake target.
func (c *Controller) BillingState(routerID int) (mode, wakeTarget power.Mode) {
	pm := &c.pm[routerID]
	switch pm.state {
	case Inactive:
		return power.Inactive, 0
	case Wakeup:
		return power.Wakeup, pm.mode
	default:
		if pm.switchLeft > 0 {
			return pm.switchBill, 0
		}
		return pm.mode, 0
	}
}

// --- network.PowerView ---

// CanAccept reports whether the router may receive (and move) flits.
func (c *Controller) CanAccept(routerID int) bool {
	pm := &c.pm[routerID]
	return pm.state == Active && pm.switchLeft == 0
}

// WakeRequest punches a gated router into the wakeup state; no-op for
// routers already waking or active.
func (c *Controller) WakeRequest(routerID int) {
	pm := &c.pm[routerID]
	if pm.state != Inactive {
		return
	}
	costs := vr.CostsFor(pm.mode)
	offDur := int64(c.now - pm.offSince)
	c.offAcc[routerID] += offDur
	pm.state = Wakeup
	pm.wakeLeft = costs.TWakeup
	pm.domain.SetFreq(power.FreqMHz(pm.mode))
	pm.domain.Reset()
	st := &c.stats[c.lane[routerID]]
	st.Wakes++
	st.WakesByMode[pm.mode.Index()]++
	if timing.CyclesIn(timing.Tick(offDur), power.FreqMHz(pm.mode)) >= int64(costs.TBreakeven) {
		st.BreakevenMet++
	}
}

// WakeStallTicks returns the base ticks a router woken into mode m spends
// in the wakeup state before it can move flits: TWakeup cycles at m's
// frequency, counted from the domain reset every wake performs, so it is
// the same for every wake into m.
func WakeStallTicks(m power.Mode) int64 {
	var d timing.Domain
	d.SetFreq(power.FreqMHz(m))
	return d.TicksUntilCycle(vr.CostsFor(m).TWakeup)
}

// Advance moves the router's state machine one base tick forward and
// reports whether the router should run a network cycle this tick. The
// engine must call it exactly once per router per tick, after SetNow.
func (c *Controller) Advance(routerID int) bool {
	pm := &c.pm[routerID]
	switch pm.state {
	case Inactive:
		return false
	case Wakeup:
		if pm.domain.Tick() {
			pm.wakeLeft--
			if pm.wakeLeft <= 0 {
				pm.state = Active
				pm.idleCycles = 0
			}
		}
		return false
	default:
		if !pm.domain.Tick() {
			return false
		}
		if pm.switchLeft > 0 {
			pm.switchLeft--
			return false
		}
		return true
	}
}

// SetNow updates the controller clock; the engine calls it once per tick.
func (c *Controller) SetNow(now timing.Tick) { c.now = now }

// NoEvent is TicksToNextEvent's result when a router has no pending
// autonomous transition (it will sit in its current state until external
// input arrives).
const NoEvent = int64(1<<63 - 1)

// TicksToNextEvent returns the relative base tick offset at which the
// router's next autonomous state transition fires, assuming the network
// stays quiescent (no wake punches, no flits): 0 means "during the
// current tick", 1 "during the next", and so on. Covered transitions are
// wakeup completion, voltage-switch completion, and idle gating. The
// engine's fast-forward path may batch-process all ticks strictly before
// the returned offset; the transition tick itself must be stepped
// normally.
func (c *Controller) TicksToNextEvent(routerID int) int64 {
	pm := &c.pm[routerID]
	switch pm.state {
	case Inactive:
		// Only an external wake punch leaves Inactive.
		return NoEvent
	case Wakeup:
		return pm.domain.TicksUntilCycle(pm.wakeLeft) - 1
	default:
		if pm.switchLeft > 0 {
			return pm.domain.TicksUntilCycle(pm.switchLeft) - 1
		}
		if !c.spec.PowerGating {
			return NoEvent
		}
		return pm.domain.TicksUntilCycle(c.spec.TIdle-pm.idleCycles) - 1
	}
}

// Dormant reports whether the router has no pending autonomous
// transition: left alone, it stays in its current state (and keeps its
// current billing mode) indefinitely until external input — a wake
// punch, a flit arrival, an epoch-boundary mode switch — arrives.
// Dormant is the policy-side leg of the engine's active-set deferral
// condition: a dormant router whose buffers are empty and which holds
// no securing claims can be taken off the per-tick schedule entirely
// and caught up in closed form (FastForward) when it is next touched.
// Dormant(r) is equivalent to TicksToNextEvent(r) == NoEvent but avoids
// the integer division on the hot path. An Active power-gating router
// counting down to idle gating is NOT dormant — the engine defers those
// separately by re-arming at the gating tick (see IdleGatingOnly).
func (c *Controller) Dormant(routerID int) bool {
	pm := &c.pm[routerID]
	switch pm.state {
	case Inactive:
		return true
	case Wakeup:
		return false
	default:
		return pm.switchLeft == 0 && !c.spec.PowerGating
	}
}

// IdleGatingOnly reports whether the router's only pending autonomous
// transition is its idle-gating countdown: an Active router of a
// power-gating model, not paused for a voltage switch. Such a router is
// not Dormant — left alone and idle it gates itself after TIdle local
// cycles — but it is still deferrable: the engine can take it off the
// schedule and re-arm it at exactly the tick TicksToNextEvent predicts
// the gating to fire, catching it up with FastForward (whose idle-cycle
// accrual replicates PostCycle on an idle router) when that tick, or any
// earlier wake, arrives.
func (c *Controller) IdleGatingOnly(routerID int) bool {
	pm := &c.pm[routerID]
	return c.spec.PowerGating && pm.state == Active && pm.switchLeft == 0
}

// FastForward advances the router's state machine by delta base ticks in
// one step — the exact closed form of delta Advance calls on a quiescent
// network. The caller must bound delta so that no transition fires inside
// the window (delta <= TicksToNextEvent for every router). It returns how
// many local router cycles would have run (Active routers outside a
// switch pause), so the engine can advance the router's cycle counter and
// replicate the per-cycle PostCycle idle accounting; 0 for all other
// states.
//
// FastForward touches only the router's own state machine, so during a
// concurrent sweep each engine shard may catch up its own routers in
// parallel.
func (c *Controller) FastForward(routerID int, delta int64) int64 {
	pm := &c.pm[routerID]
	switch pm.state {
	case Inactive:
		// Advance never ticks the domain of a gated router.
		return 0
	case Wakeup:
		pm.wakeLeft -= int(pm.domain.AdvanceBy(delta))
		return 0
	default:
		fires := pm.domain.AdvanceBy(delta)
		if pm.switchLeft > 0 {
			pm.switchLeft -= int(fires)
			return 0
		}
		// PostCycle on an empty, unsecured router counts one idle cycle
		// per fired local cycle.
		if c.spec.PowerGating {
			pm.idleCycles += int(fires)
		}
		return fires
	}
}

// FastForwardSecured is the FastForward variant for a router that holds
// securing claims for the entire skipped window. The one behavioral
// difference is the idle counter of an Active power-gating router: eager
// stepping runs PostCycle after every fired local cycle, and PostCycle
// resets idleCycles to 0 whenever the router is secured — so a secured
// window with at least one fired cycle ends with idleCycles == 0, not
// idleCycles + fires. Every other state (Inactive, Wakeup, mid-switch,
// non-gating models) ignores the secured bit and delegates to
// FastForward. The engine picks the variant per router from the
// network's secured count, which cannot change inside a horizon window
// (claims are only raised or released by injections, landings and flit
// movement, all of which bound the window).
func (c *Controller) FastForwardSecured(routerID int, delta int64) int64 {
	pm := &c.pm[routerID]
	if pm.state != Active || pm.switchLeft > 0 || !c.spec.PowerGating {
		return c.FastForward(routerID, delta)
	}
	fires := pm.domain.AdvanceBy(delta)
	if fires > 0 {
		pm.idleCycles = 0
	}
	return fires
}

// TicksToNextCycle returns the relative base tick offset at which the
// router's next local cycle fires: 0 means "during the current tick".
// The engine's event-horizon path uses it to cap a skip at the next
// injection opportunity of an Active router with packets queued at its
// attached cores (injection happens inside the router cycle, so no
// packet can enter the network strictly before this offset). Only
// meaningful for routers whose clock is running (Active; callers gate on
// CanAccept).
func (c *Controller) TicksToNextCycle(routerID int) int64 {
	return c.pm[routerID].domain.TicksUntilCycle(1) - 1
}

// PostCycle updates idleness after a router's network cycle and gates the
// router once it has been idle T-Idle consecutive cycles (only when the
// model power-gates). A router is idle when its buffers are empty and it
// is not secured.
func (c *Controller) PostCycle(routerID int) {
	if !c.spec.PowerGating {
		return
	}
	pm := &c.pm[routerID]
	if c.nv.BuffersEmpty(routerID) && !c.nv.Secured(routerID) {
		pm.idleCycles++
	} else {
		pm.idleCycles = 0
		return
	}
	if pm.idleCycles >= c.spec.TIdle {
		pm.state = Inactive
		pm.offSince = c.now
		pm.idleCycles = 0
		c.stats[c.lane[routerID]].Gatings++
	}
}

// EpochBoundary runs the mode selector for a router at an epoch boundary
// and reports whether it ran; Mode then returns the chosen mode. Per
// §III-B the selector only runs for routers in the active state; the
// chosen mode also becomes the wake target for subsequent gating periods.
func (c *Controller) EpochBoundary(routerID int, ibu float64, feats []float64) (decided bool) {
	pm := &c.pm[routerID]
	if pm.state != Active {
		return false
	}
	m := c.spec.Selector.SelectMode(routerID, ibu, feats)
	st := &c.stats[c.lane[routerID]]
	st.EpochDecisions++
	st.ModeDecisions[m.Index()]++
	if m == pm.mode {
		return true
	}
	// Begin a voltage/frequency switch: pause for T-Switch cycles of the
	// new clock, billing static power at the higher of the two modes.
	st.ModeSwitches++
	old := pm.mode
	pm.mode = m
	pm.switchLeft = vr.CostsFor(m).TSwitch
	pm.switchBill = old
	if m > old {
		pm.switchBill = m
	}
	pm.domain.SetFreq(power.FreqMHz(m))
	return true
}

// GlobalSelector models a globally coordinated DVFS alternative: every
// router adopts the *maximum* mode any router requested during the
// previous epoch (one epoch of coordination latency, as collecting
// network-wide state would cost). DozzNoC argues for per-router domains
// precisely because global coordination wastes the headroom of idle
// regions; this selector quantifies that claim.
type GlobalSelector struct {
	Inner ModeSelector

	lastRouter int
	curMax     power.Mode
	prevMax    power.Mode
}

// NewGlobalSelector wraps a per-router selector with network-wide max
// coordination.
func NewGlobalSelector(inner ModeSelector) *GlobalSelector {
	return &GlobalSelector{Inner: inner, lastRouter: -1, curMax: power.MinActive, prevMax: power.MaxActive}
}

// Name implements ModeSelector.
func (g *GlobalSelector) Name() string { return "global(" + g.Inner.Name() + ")" }

// SelectMode implements ModeSelector. Boundary sweeps visit routers in
// ascending ID order, so a non-increasing ID marks a new epoch.
func (g *GlobalSelector) SelectMode(routerID int, ibu float64, feats []float64) power.Mode {
	if routerID <= g.lastRouter {
		g.prevMax = g.curMax
		g.curMax = power.MinActive
	}
	g.lastRouter = routerID
	if m := g.Inner.SelectMode(routerID, ibu, feats); m > g.curMax {
		g.curMax = m
	}
	return g.prevMax
}
