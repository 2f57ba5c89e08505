// Package obs is the engine's observability layer: run metrics folded at
// epoch boundaries, Chrome trace_event phase tracing (tracer.go), and a
// live expvar/pprof HTTP endpoint (server.go).
//
// The design contract is that observability must never perturb results
// and must cost almost nothing when disabled: every hook the engine
// calls is a branch on a nil pointer, and every hook runs on the engine
// goroutine — none from a shard worker. Event and scheduling counts,
// the wake-stall histogram and residency are derived at epoch folds,
// after the engine's catch-up barrier, from state that is already exact
// (DESIGN.md §5e). Counts live only where they happen (the controller's
// policy.Stats, the engine's scheduling counters, the power meters); a
// fold reads their cumulative values into the run's totals.
package obs

import (
	"math"
	"time"

	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/timing"
)

// Observer bundles the optional observability sinks a run can attach
// (sim.Config.Obs). Either field may be nil independently: Metrics
// collects counters and the per-epoch series, Tracer emits engine-phase
// spans. A nil *Observer disables the layer entirely.
type Observer struct {
	Metrics *Metrics
	Tracer  *Tracer
}

// New returns an Observer with a fresh Metrics and no Tracer — the common
// "counters only" configuration.
func New() *Observer { return &Observer{Metrics: NewMetrics()} }

// Snapshot is a cumulative, self-contained view of a run's metrics:
// returned by Metrics.Snapshot, and published atomically at every epoch
// fold for the live endpoint while a Server is open.
type Snapshot struct {
	Run    int64  `json:"run"`   // 1-based bind count of the Metrics
	Label  string `json:"label"` // run label (model/trace)
	Tick   int64  `json:"tick"`  // last folded tick
	Epochs int64  `json:"epochs"`

	Gatings      int64 `json:"gatings"`
	Wakes        int64 `json:"wakes"`
	WakeOffTicks int64 `json:"wake_off_ticks"`
	ModeSwitches int64 `json:"mode_switches"`

	// Scheduling diagnostics, read from the engine's own counters at
	// each fold (the same values sim.Result reports).
	LazyTicks           int64 `json:"lazy_router_ticks"`
	ParallelTicks       int64 `json:"parallel_ticks"`
	ParallelLandings    int64 `json:"parallel_landings"`
	FastForwardedTicks  int64 `json:"fast_forwarded_ticks"`
	HorizonSkippedTicks int64 `json:"horizon_skipped_ticks"`

	ShardSweeps   []int64 `json:"shard_sweeps"`   // sweeps per shard
	ActiveRouters int     `json:"active_routers"` // active-set size at the last fold

	// Shard balance, republished per fold so -obs-addr shows it live:
	// ShardLoad is the per-shard swept-router-tick counts and
	// ShardImbalance their max/mean (1.0 = perfectly balanced).
	// ShardResplits is always 0 (the shard partition is fixed); it stays
	// because the repository benchmark's pinned digests hash result rows
	// that carry it.
	ShardLoad      []int64 `json:"shard_load"`
	ShardImbalance float64 `json:"shard_imbalance"`
	ShardResplits  int64   `json:"shard_resplits"`

	ResidencyTicks [2 + power.NumActiveModes]int64 `json:"residency_ticks"`

	EpochDecisions int64   `json:"epoch_decisions"`
	MeanAbsPredErr float64 `json:"mean_abs_pred_err"` // |measured - predicted| IBU

	// Prediction-quality layer (all deterministic for a given run
	// configuration — they survive Deterministic() and ride in sweep
	// rows). DecisionsByMode[i] counts boundary decisions that chose
	// active mode M3+i.
	DecisionsByMode [power.NumActiveModes]int64 `json:"decisions_by_mode"`

	// Mispredict-cost attribution: a matured decision whose chosen mode
	// sits below the mode the measured IBU called for is an
	// under-prediction (the router was run too slow or gated and traffic
	// arrived — UnderPredStallTicks charges the wakeup stalls the router
	// accrued that epoch as the latency-penalty proxy); a chosen mode
	// above the ideal is an over-prediction (a missed gating/slow-down
	// opportunity — OverPredStaticWasteJ charges the static-power excess
	// of the chosen mode over the ideal for one epoch as the attributed
	// waste estimate). RouterUnderPred/RouterOverPred are the per-router
	// decision counts behind the totals.
	UnderPredDecisions   int64   `json:"underpred_decisions"`
	OverPredDecisions    int64   `json:"overpred_decisions"`
	UnderPredStallTicks  int64   `json:"underpred_stall_ticks"`
	OverPredStaticWasteJ float64 `json:"overpred_static_waste_j"`
	RouterUnderPred      []int64 `json:"router_underpred,omitempty"`
	RouterOverPred       []int64 `json:"router_overpred,omitempty"`

	// Drift detection (Page–Hinkley over the per-epoch folded mean abs
	// error, drift.go). DriftEvents counts fires this run; LastDriftTick
	// is the boundary tick of the most recent fire (0 if none).
	DriftEvents   int64 `json:"pred_drift_events"`
	LastDriftTick int64 `json:"pred_drift_last_tick"`

	// Folded histograms (hist.go): per-decision absolute IBU prediction
	// error in ErrScale fixed-point units, delivered-packet latency in
	// base ticks, and per-wake stall duration in base ticks.
	AbsErrHist    HistSnapshot `json:"pred_abs_err_hist"`
	LatencyHist   HistSnapshot `json:"packet_latency_hist"`
	WakeStallHist HistSnapshot `json:"wake_stall_hist"`

	PoolHits   int64 `json:"pool_hits"`
	PoolMisses int64 `json:"pool_misses"`

	TicksPerSec float64 `json:"ticks_per_sec"` // simulated base ticks per wall second
}

// WakeStallTicks returns cumulative wakeup-residency ticks.
func (s *Snapshot) WakeStallTicks() int64 { return s.ResidencyTicks[1] }

// Deterministic returns a copy with every field that can differ between
// reruns of the same configuration zeroed: wall-clock rates, the Metrics
// bind count, and the scheduling diagnostics that depend on the shard
// count (which auto sizing derives from the host's CPUs), the
// ShardMinActive threshold, or worker timing. What remains — event
// totals, residency, prediction accuracy, epoch count — is bit-exact for
// a given run configuration, which is what lets the sweep orchestrator
// embed an epoch-fold capture in result rows that must be byte-identical
// across resumed and uninterrupted jobs.
func (s Snapshot) Deterministic() Snapshot {
	d := s
	d.Run = 0
	d.TicksPerSec = 0
	d.ShardSweeps = nil
	d.ShardLoad = nil
	d.ShardImbalance = 0
	d.ShardResplits = 0
	d.ParallelTicks = 0
	d.ParallelLandings = 0
	d.ActiveRouters = 0
	return d
}

// Metrics derives one run's observability view. A Metrics is bound to a
// run by the engine (BindRun) and folded at epoch boundaries: each fold
// takes the cumulative counts the controller and the engine keep
// (EpochFold) as the run totals, so no count is kept twice. What no
// other layer records — the latency and prediction-error histograms,
// prediction accuracy and its mispredict cost — it collects itself from
// the engine's EpochDecision and PacketLatency calls. Every method runs
// on the engine goroutine. A Metrics is not safe to share across
// concurrently executing runs; rebinding resets per-run state, so one
// Metrics may observe a sequence of runs.
type Metrics struct {
	meters []power.Meter // the engine's meters, one per router (read-only)

	run      int64
	label    string
	started  time.Time
	seriesOn bool
	series   *stats.Series
	epochs   int64    // folds completed this run
	totals   Snapshot // cumulative as of the last fold

	absErr  Hist // per-decision |measured - predicted| IBU, ErrScale fixed-point
	latency Hist // delivered packet latency, base ticks

	// Prediction bookkeeping (EpochDecision fires only from the boundary
	// sweep).
	lastPred   []float64 // previous boundary's prediction per router, NaN if none
	predErrSum float64   // |measured - matured prediction| since the last fold
	predErrN   int64
	errSumRun  float64 // run totals for the snapshot's mean
	errNRun    int64

	// Mispredict-cost attribution (EpochDecision). lastMode is the mode
	// each router's previous boundary chose — the decision that matures
	// against this boundary's measured IBU. stallSeen is each router's
	// metered wakeup residency at its previous decision, the cursor that
	// turns the meter into per-decision stall deltas.
	epochTicks int64
	lastMode   []power.Mode
	stallSeen  []int64

	// Drift detection over the per-epoch folded mean abs error
	// (drift.go), reset per run.
	drift driftState
}

// NewMetrics returns an unbound Metrics; the engine binds it at run
// start.
func NewMetrics() *Metrics { return &Metrics{} }

// BindRun attaches the Metrics to a run: the engine's per-router meters
// (one per router; Metrics keeps the slice and only reads it), and
// optionally a per-epoch stats.Series (the engine sources Result.Series
// from it). All per-run state is reset; the bind count survives so a
// long-lived Observer can tell runs apart on the live endpoint.
func (m *Metrics) BindRun(label string, meters []power.Meter, epochTicks int64, collectSeries bool) {
	numRouters := len(meters)
	m.run++
	m.label = label
	m.started = time.Now()
	m.meters = meters
	m.seriesOn = collectSeries
	m.series = nil
	if collectSeries {
		m.series = &stats.Series{EpochTicks: epochTicks}
	}
	m.epochs = 0
	m.totals = Snapshot{
		Run: m.run, Label: label,
		RouterUnderPred: make([]int64, numRouters),
		RouterOverPred:  make([]int64, numRouters),
	}
	m.absErr, m.latency = Hist{}, Hist{}
	m.lastPred = make([]float64, numRouters)
	for i := range m.lastPred {
		m.lastPred[i] = math.NaN()
	}
	m.predErrSum, m.predErrN = 0, 0
	m.errSumRun, m.errNRun = 0, 0
	m.epochTicks = epochTicks
	m.lastMode = make([]power.Mode, numRouters)
	m.stallSeen = make([]int64, numRouters)
	m.drift = driftState{}
}

// DriftEvents returns the drift-detector fire count of the current run.
func (m *Metrics) DriftEvents() int64 { return m.totals.DriftEvents }

// Series returns the per-epoch series collected for the current run (nil
// unless BindRun asked for one).
func (m *Metrics) Series() *stats.Series { return m.series }

// EpochDecision records one selector run at an epoch boundary: measured
// is the closing epoch's IBU, predicted the IBU the selector derived its
// mode from (equal to measured for non-predictive selectors). It matures
// the previous boundary's prediction against the measured IBU and
// attributes the matured decision's mispredict cost. The comparison is
// mode-space: the mode the previous boundary actually chose against the
// mode the measured IBU would have called for (policy.ModeForIBU). A
// chosen mode below the ideal is an under-prediction, charged the
// router's metered wakeup residency since its last decision; above is
// an over-prediction, charged one epoch of the static-power excess over
// the ideal mode. The engine calls it from the boundary sweep, after the
// catch-up barrier, so the meters are exact.
func (m *Metrics) EpochDecision(routerID int, measured, predicted float64, mode power.Mode) {
	stall := m.meters[routerID].ResidencyTicks(power.Wakeup)
	if lp := m.lastPred[routerID]; !math.IsNaN(lp) {
		e := math.Abs(measured - lp)
		m.predErrSum += e
		m.predErrN++
		m.errSumRun += e
		m.errNRun++
		m.absErr.Observe(int64(e*ErrScale + 0.5))
		ideal := policy.ModeForIBU(measured)
		switch chosen := m.lastMode[routerID]; {
		case chosen < ideal:
			m.totals.UnderPredDecisions++
			m.totals.RouterUnderPred[routerID]++
			m.totals.UnderPredStallTicks += stall - m.stallSeen[routerID]
		case chosen > ideal:
			m.totals.OverPredDecisions++
			m.totals.RouterOverPred[routerID]++
			m.totals.OverPredStaticWasteJ += float64(m.epochTicks) *
				(power.StaticWatts(chosen) - power.StaticWatts(ideal)) * timing.TickSeconds
		}
	}
	m.stallSeen[routerID] = stall
	m.lastPred[routerID] = predicted
	m.lastMode[routerID] = mode
}

// PacketLatency records one delivered packet's latency in base ticks.
// The engine calls it from the network's serial commit phase.
func (m *Metrics) PacketLatency(ticks int64) { m.latency.Observe(ticks) }

// EpochFold carries the engine's readings into FoldEpoch and FinishRun.
// Every count in it is cumulative over the run and kept by its owner —
// the controller (Policy) or the engine (the rest); the fold takes them
// as the run totals.
type EpochFold struct {
	Now            int64   // the boundary tick (the final tick for FinishRun)
	SumIBU         float64 // summed per-router IBU of the closing epoch
	FlitsDelivered int64
	ActiveRouters  int // active-set population at the boundary
	PoolHits       int64
	PoolMisses     int64
	ShardLoad      []int64 // swept router-ticks per shard (engine scratch; copied)
	ShardSweeps    []int64 // active-set sweeps per shard (engine scratch; copied)

	Policy              policy.Stats
	WakeOffTicks        int64 // policy.Controller.EndedOffTicks
	LazyTicks           int64
	ParallelTicks       int64
	ParallelLandings    int64
	FastForwardedTicks  int64
	HorizonSkippedTicks int64
}

// FoldEpoch closes one epoch: it builds the stats.EpochSample the
// series and figure pipeline consume, takes the residency totals from
// the bound meters, feeds the drift detector, and publishes f's
// cumulative readings as the totals. The engine calls it after Commit
// and the catch-up barrier. The sample computation is field-for-field
// the engine's pre-obs code, so series CSVs are byte-identical. It
// reports whether the drift detector fired at this fold, so the engine
// can emit a tracer instant event for it.
func (m *Metrics) FoldEpoch(f EpochFold, ctrl *policy.Controller) (driftFired bool) {
	sample := stats.EpochSample{Tick: f.Now, FlitsDelivered: f.FlitsDelivered}
	if nR := len(m.meters); nR > 0 {
		sample.AvgIBU = f.SumIBU / float64(nR)
	}
	for r := range m.meters {
		switch ctrl.State(r) {
		case policy.Inactive:
			sample.OffRouters++
		case policy.Wakeup:
			sample.WakingRouters++
		default:
			sample.ModeRouters[ctrl.Mode(r).Index()]++
		}
	}
	var res [2 + power.NumActiveModes]int64
	for i := range m.meters {
		sample.StaticJ += m.meters[i].StaticJoules()
		sample.DynamicJ += m.meters[i].DynamicJoules()
		r := m.meters[i].Residency()
		for s := range res {
			res[s] += r[s]
		}
	}
	if m.series != nil {
		m.series.Add(sample)
	}
	m.totals.ResidencyTicks = res

	// Page–Hinkley over the closing epoch's mean matured abs error;
	// epochs with no matured prediction (warm-up, non-ML models) carry no
	// signal and are skipped.
	if m.predErrN > 0 && m.drift.observe(m.predErrSum/float64(m.predErrN)) {
		driftFired = true
		m.totals.DriftEvents++
		m.totals.LastDriftTick = f.Now
	}
	m.predErrSum, m.predErrN = 0, 0

	m.epochs++
	m.publish(f)
	return driftFired
}

// publish replaces the totals with f's cumulative readings and the
// histograms and, while a Server is open, refreshes the live expvar
// snapshot with a copy. The wake-stall histogram is derived from the
// per-mode wake counts: every wake into mode m stalls
// policy.WakeStallTicks(m). The totals reuse their own slice backing,
// so with no Server open publish allocates nothing.
func (m *Metrics) publish(f EpochFold) {
	var wakeStall Hist
	for i, n := range f.Policy.WakesByMode {
		wakeStall.ObserveN(policy.WakeStallTicks(power.ActiveMode(i)), n)
	}
	t := &m.totals
	m.absErr.snapshotInto(&t.AbsErrHist)
	m.latency.snapshotInto(&t.LatencyHist)
	wakeStall.snapshotInto(&t.WakeStallHist)

	t.Tick = f.Now
	t.Epochs = m.epochs
	t.Gatings = f.Policy.Gatings
	t.Wakes = f.Policy.Wakes
	t.ModeSwitches = f.Policy.ModeSwitches
	t.WakeOffTicks = f.WakeOffTicks
	t.EpochDecisions = f.Policy.EpochDecisions
	t.DecisionsByMode = f.Policy.ModeDecisions
	t.LazyTicks = f.LazyTicks
	t.ParallelTicks = f.ParallelTicks
	t.ParallelLandings = f.ParallelLandings
	t.FastForwardedTicks = f.FastForwardedTicks
	t.HorizonSkippedTicks = f.HorizonSkippedTicks
	t.ActiveRouters = f.ActiveRouters
	t.PoolHits = f.PoolHits
	t.PoolMisses = f.PoolMisses
	t.ShardSweeps = append(t.ShardSweeps[:0], f.ShardSweeps...)
	t.ShardLoad = append(t.ShardLoad[:0], f.ShardLoad...)
	t.ShardImbalance = ShardImbalance(f.ShardLoad)
	if m.errNRun > 0 {
		t.MeanAbsPredErr = m.errSumRun / float64(m.errNRun)
	}
	if el := time.Since(m.started).Seconds(); el > 0 {
		t.TicksPerSec = float64(f.Now) / el
	}
	if openServers.Load() > 0 {
		snap := m.snapshotCopy()
		setLiveSnapshot(&snap)
	}
}

// snapshotCopy deep-copies the totals so the returned Snapshot shares no
// slice backing with the live fold state.
func (m *Metrics) snapshotCopy() Snapshot {
	snap := m.totals
	snap.ShardSweeps = append([]int64(nil), m.totals.ShardSweeps...)
	snap.ShardLoad = append([]int64(nil), m.totals.ShardLoad...)
	snap.RouterUnderPred = append([]int64(nil), m.totals.RouterUnderPred...)
	snap.RouterOverPred = append([]int64(nil), m.totals.RouterOverPred...)
	snap.AbsErrHist = m.totals.AbsErrHist.clone()
	snap.LatencyHist = m.totals.LatencyHist.clone()
	snap.WakeStallHist = m.totals.WakeStallHist.clone()
	return snap
}

// ShardImbalance is max/mean of the per-shard loads: 1.0 is perfectly
// balanced, len(loads) is everything on one shard, 0 an idle run.
func ShardImbalance(loads []int64) float64 {
	var sum, max int64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(loads)) / float64(sum)
}

// FinishRun folds events that accrued after the last epoch boundary
// (partial epochs, post-drain catch-up) into the totals and republishes;
// f.Now is the run's final tick. The engine calls it once, after its
// final catch-up flush.
func (m *Metrics) FinishRun(f EpochFold) { m.publish(f) }

// Snapshot returns the cumulative totals as of the last fold. Call it
// from the engine goroutine or after the run; the live endpoint reads
// the atomically published copy instead.
func (m *Metrics) Snapshot() Snapshot {
	return m.snapshotCopy()
}

// PredSummary is the prediction-quality subset of a Snapshot: scalars
// only, each equal to the Snapshot field of the same name.
type PredSummary struct {
	EpochDecisions       int64
	MeanAbsPredErr       float64
	UnderPredDecisions   int64
	OverPredDecisions    int64
	UnderPredStallTicks  int64
	OverPredStaticWasteJ float64
	DriftEvents          int64
}

// PredSummary returns the prediction-quality totals Snapshot would
// report now, without cloning the snapshot's slices and histograms — the
// read a co-simulation session makes after every op. Same calling rules
// as Snapshot.
func (m *Metrics) PredSummary() PredSummary {
	t := &m.totals
	return PredSummary{
		EpochDecisions:       t.EpochDecisions,
		MeanAbsPredErr:       t.MeanAbsPredErr,
		UnderPredDecisions:   t.UnderPredDecisions,
		OverPredDecisions:    t.OverPredDecisions,
		UnderPredStallTicks:  t.UnderPredStallTicks,
		OverPredStaticWasteJ: t.OverPredStaticWasteJ,
		DriftEvents:          t.DriftEvents,
	}
}
