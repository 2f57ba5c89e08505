// Package sim is the cycle-level simulation engine: it drives the network,
// the power-management controller and the energy meters over a packet
// trace, handles the DVFS epoch loop, and optionally harvests the ML
// training dataset (features per epoch, labeled with the next epoch's
// IBU).
//
// Time advances in base ticks of the fastest clock (timing.BaseFreqMHz);
// each router's clock domain fires local cycles at its current mode's
// rational fraction of base ticks. Runs end when the trace is exhausted
// and the network has drained, or at the MaxTicks safety cap.
package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/features"
	"repro/internal/flit"
	"repro/internal/ml"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Default engine parameters.
const (
	DefaultVCs        = 2
	DefaultDepth      = 4
	DefaultPipeline   = 3
	DefaultEpochTicks = 500
	DefaultPunchHops  = -1
	// DefaultShardMinActive is the active-set size below which a sharded
	// engine sweeps serially (ShardMinActive = 0 selects it): with few
	// routers scheduled, the barrier costs more than the overlap saves.
	DefaultShardMinActive = 32
)

// Config describes one simulation run.
type Config struct {
	Topo  topology.Topology
	Spec  policy.Spec
	Trace *traffic.Trace

	VCs        int   // virtual channels per port (default 2)
	Depth      int   // flits per VC (default 4)
	Pipeline   int   // router pipeline depth in cycles (default 3)
	LinkTicks  int64 // inter-router wire latency in base ticks (default 0)
	EpochTicks int64 // DVFS epoch length in base ticks (default 500)
	MaxTicks   int64 // safety cap (default: 4x trace span + 200k)

	// CollectDataset harvests (features, future-IBU) rows per router per
	// epoch for offline training.
	CollectDataset bool
	// PunchHops is how many routers of a packet's XY path (starting at
	// the source router) receive a wake punch at injection time; routers
	// further along are woken one hop ahead as the head flit advances,
	// making the scheme partially (not fully) non-blocking. Negative
	// punches the entire path; 0 selects DefaultPunchHops (-1), the
	// whole path.
	PunchHops int
	// NoPathPunch disables injection-time punching entirely (heads still
	// wake their next hop on acceptance).
	NoPathPunch bool
	// Extractor overrides the per-epoch feature extractor (default: the
	// reduced Table IV set). Use features.NewExtendedExtractor for the
	// 41-feature DozzNoC-41 variant.
	Extractor FeatureExtractor
	// Workload, when set, drives injection interactively instead of a
	// trace (closed-loop full-system mode: the workload reacts to
	// deliveries, so network slowdowns feed back into injection). Trace
	// must be nil when Workload is set.
	Workload Workload
	// CollectSeries records a per-epoch network snapshot (Result.Series)
	// for time-resolved plots.
	CollectSeries bool
	// Reference selects the reference engine: every base tick stepped,
	// every router visited every tick, one shard — no event-horizon skips,
	// no active-set deferral, no concurrent sweeps. Results are
	// bit-identical to the default engine except for the scheduling
	// diagnostics (FuzzEngineVsReference proves this over generated
	// configurations); the knob exists as that proof's oracle and as a
	// debugging escape hatch.
	Reference bool
	// Shards partitions the mesh into contiguous row-aligned router
	// ranges, rows split as evenly as Shards divides them and fixed for
	// the run (DESIGN.md §5g), that sweep concurrently inside a base tick
	// whenever the rows straddling every shard boundary are provably
	// isolated (empty, unsecured) and ShardMinActive admits the tick.
	// Results are bit-identical for any shard count — other ticks sweep
	// serially, and concurrent sweeps stage shared-state effects into
	// per-shard lanes replayed in the serial order (DESIGN.md §5c). 0
	// selects min(GOMAXPROCS, NumCPU, rows) — in particular it resolves
	// to 1 on a single-CPU host, where concurrent sweeps could only
	// interleave; 1 disables concurrency. Clamped to the router-row
	// count. Forced to 1 under Reference or when Pipeline < 2 (a
	// 1-cycle pipeline lets a flit cross two links in one tick,
	// defeating the boundary-margin isolation argument).
	Shards int
	// ShardMinActive is the minimum active-set size before a tick is
	// swept concurrently (barrier cost dominates below it). 0 selects
	// DefaultShardMinActive; positive pins it; negative means 1 (always
	// attempt), which the equivalence tests use to maximize parallel
	// coverage on small meshes. The threshold only gates scheduling, so
	// results are bit-identical for any value.
	ShardMinActive int
	// Obs attaches the observability layer (package obs): run metrics
	// folded at epoch boundaries on the engine goroutine, and optionally
	// an engine phase tracer. Optional and purely diagnostic — a nil
	// Observer leaves every hook a not-taken nil branch, and an attached
	// one never changes results. When CollectSeries is set without an
	// Observer the engine creates an internal Metrics, so the per-epoch
	// series always flows through the same fold path.
	Obs *obs.Observer

	// forSession marks a config built by NewSession: injections arrive
	// incrementally through Session.Schedule instead of a trace or
	// workload, and time advances in caller-driven windows. Unexported:
	// Run rejects it, and only NewSession sets it.
	forSession bool
}

// Workload is a closed-loop traffic source (e.g. the mcsim multicore
// model): the engine calls Tick every base tick so it can inject packets,
// forwards every delivery to it, and stops once it reports Done and the
// network has drained.
type Workload interface {
	// Tick may inject any number of packets at the current tick.
	Tick(now int64, inject func(p *flit.Packet))
	// PacketDelivered observes a delivery (response matching, stall
	// release).
	PacketDelivered(p *flit.Packet, core int, now int64)
	// Done reports whether the workload has no more work to issue.
	Done() bool
}

// FeatureExtractor computes a router's per-epoch feature vector; both the
// reduced (Table IV) and extended (41-feature) extractors implement it.
// The returned vector is only valid until the next Collect for the same
// router: extractors may hand out per-router storage they overwrite. The
// engine honours this — it passes the vector to the selector at once and
// keeps it as the router's pending dataset row, which ml.Dataset.Add
// copies before that router's next Collect.
type FeatureExtractor interface {
	Collect(routerID int, net *network.Network, ctrl *policy.Controller, ibu float64, now timing.Tick) []float64
}

// featureNamer is optionally implemented by extractors to label dataset
// columns.
type featureNamer interface{ FeatureNames() []string }

// DefaultWorkloadMaxTicks caps closed-loop runs with no explicit limit.
const DefaultWorkloadMaxTicks = 5_000_000

func (c *Config) applyDefaults() error {
	if c.Topo == nil {
		return errors.New("sim: nil topology")
	}
	if c.forSession {
		if c.Trace != nil || c.Workload != nil {
			return errors.New("sim: a session drives injection itself; Trace and Workload must be nil")
		}
	} else if c.Trace == nil && c.Workload == nil {
		return errors.New("sim: need a trace or a workload")
	}
	if c.Trace != nil && c.Workload != nil {
		return errors.New("sim: trace and workload are mutually exclusive")
	}
	if c.Trace != nil && c.Trace.Cores != c.Topo.NumCores() {
		return fmt.Errorf("sim: trace has %d cores, topology has %d", c.Trace.Cores, c.Topo.NumCores())
	}
	if c.VCs == 0 {
		c.VCs = DefaultVCs
	}
	if c.Depth == 0 {
		c.Depth = DefaultDepth
	}
	if c.Pipeline == 0 {
		c.Pipeline = DefaultPipeline
	}
	if err := network.RouterConfig(c.Topo, c.VCs, c.Depth, c.Pipeline).Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.LinkTicks < 0 {
		return fmt.Errorf("sim: negative link latency %d", c.LinkTicks)
	}
	if c.EpochTicks < 0 {
		return fmt.Errorf("sim: negative epoch length %d", c.EpochTicks)
	}
	if c.PunchHops == 0 {
		c.PunchHops = DefaultPunchHops
	}
	if c.EpochTicks == 0 {
		c.EpochTicks = DefaultEpochTicks
	}
	if c.MaxTicks == 0 {
		switch {
		case c.Trace != nil:
			span := c.Trace.Horizon
			if n := len(c.Trace.Entries); n > 0 && c.Trace.Entries[n-1].Time > span {
				span = c.Trace.Entries[n-1].Time
			}
			c.MaxTicks = 4*span + 200_000
		case c.forSession:
			// A session's lifetime is open-ended; per-window budgets
			// (Advance/Drain arguments) bound the work instead.
			c.MaxTicks = 1 << 62
		default:
			c.MaxTicks = DefaultWorkloadMaxTicks
		}
	}
	rows := c.Topo.Height()
	if c.Shards == 0 {
		// Auto-sizing caps the shard count at the number of hardware CPUs
		// as well as GOMAXPROCS: on a single-CPU host (or GOMAXPROCS
		// raised above NumCPU) concurrent sweeps can only interleave, so
		// the sharded engine would pay its two-phase staging overhead
		// (~1.12x measured) with no parallelism to buy back. Shards=0
		// therefore resolves to 1 whenever only one CPU can run; an
		// explicit Shards>=2 still forces concurrency for testing.
		p := runtime.GOMAXPROCS(0)
		if ncpu := runtime.NumCPU(); ncpu < p {
			p = ncpu
		}
		if p < 1 {
			p = 1
		}
		c.Shards = p
	}
	if c.Shards > rows {
		c.Shards = rows
	}
	if c.Shards > 255 {
		c.Shards = 255 // shard IDs are stored as uint8
	}
	if c.Shards < 1 || c.Reference || c.Pipeline < 2 {
		c.Shards = 1
	}
	if c.ShardMinActive == 0 {
		c.ShardMinActive = DefaultShardMinActive
	} else if c.ShardMinActive < 0 {
		c.ShardMinActive = 1
	}
	return nil
}

// Result is a finished run's summary. Determinism contract: every field
// is deterministic — bit-identical across reruns of the same Config,
// independent of shard count, worker timing, and fast-forward regime —
// unless its own comment says "Diagnostic only". The deterministic set
// is what equivalence tests compare and what sweep rows may embed; the
// diagnostic fields describe how the run was scheduled, not what it
// computed, and equivalence tests zero them before comparing.
type Result struct {
	Model string
	Trace string

	Ticks   int64
	Drained bool // the network emptied before MaxTicks
	// FastForwardedTicks counts base ticks covered by closed-form skips
	// taken while the network was fully quiescent (no flit anywhere, no
	// packet queued, no securing claim). The event-horizon path relaxed
	// the old precondition: skips are now also taken with flits riding
	// wires, packets queued behind gated routers, or claims held — those
	// non-quiescent skips are counted by HorizonSkippedTicks instead, so
	// the two fields partition the skipped time by regime. 0 under
	// Reference. Diagnostic only: it is a Result field that may differ
	// between a fast-forward and a tick-by-tick run of the same
	// configuration — everything else is bit-identical.
	FastForwardedTicks int64
	// HorizonSkippedTicks counts base ticks covered by event-horizon
	// skips taken while the network was NOT quiescent — flits in wire
	// transit, packets queued at cores behind non-accepting or
	// slow-clocked routers, or securing claims held — but every router
	// buffer was empty, so the next effect was computable in closed form
	// (earliest of: next trace entry, next workload injection, next wire
	// arrival, next controller timer, next local cycle of a router with
	// queued packets, epoch boundary). 0 under Reference. Diagnostic
	// only, like FastForwardedTicks.
	HorizonSkippedTicks int64
	// LazySkippedRouterTicks counts router-ticks (one router deferred for
	// one base tick) covered by the active-set lazy catch-up path instead
	// of eager per-tick stepping (0 under Reference). Diagnostic only,
	// like FastForwardedTicks: equivalence tests zero both before
	// comparing Results.
	LazySkippedRouterTicks int64
	// ParallelTicks counts base ticks whose active-set sweep ran
	// concurrently across shards (0 when Shards is 1, or when no tick
	// ever satisfied the boundary-isolation predicate). Diagnostic only,
	// like FastForwardedTicks: it varies with the shard count while
	// every other field is bit-identical.
	ParallelTicks int64
	// ParallelLandings counts due wire transits landed by the shard
	// workers through their own staging lanes instead of serially on the
	// engine goroutine. It is 0 when Shards is 1, when LinkTicks is 0
	// (zero-latency links land inline), or when no due transit coincided
	// with a concurrent tick. Diagnostic only, like ParallelTicks. The
	// engine is the only store of these scheduling counts: an attached
	// obs.Metrics (Config.Obs) reads them at each epoch fold rather than
	// counting its own copy.
	ParallelLandings int64
	// ShardLoad[i] counts the router-ticks shard i's worker actually
	// stepped (swept active-set members; deferred catch-up excluded) —
	// the per-worker share of the sweep work. Diagnostic only, like the
	// counters above: it varies with the shard count and partition while
	// every other field is bit-identical. Always length Shards.
	ShardLoad []int64
	// ShardLoadImbalance is max(ShardLoad)/mean(ShardLoad) — 1.0 is a
	// perfectly balanced partition, Shards is everything on one worker.
	// 0 when nothing was swept. Diagnostic only.
	ShardLoadImbalance float64
	// ShardResplits is always 0: the shard partition is the fixed even
	// row split. The field stays because the repository benchmark reads
	// it and its pinned result digests hash rows that carry it.
	ShardResplits int64

	PacketsInjected  int64
	PacketsDelivered int64
	FlitsDelivered   int64

	AvgLatencyTicks float64
	AvgLatencyNS    float64
	// Latency is the full latency population summary (base ticks).
	Latency stats.LatencySummary
	// Throughput is delivered flits per base tick network-wide; models
	// that stall traffic stretch the run and lose throughput.
	Throughput float64

	StaticJ  float64
	DynamicJ float64

	// OffFraction is the mean fraction of router time spent power-gated.
	OffFraction float64
	// WakeupFraction is the mean fraction spent in the wakeup state.
	WakeupFraction float64
	// ModeResidency[i] is the fraction of router time in active mode
	// M3+i.
	ModeResidency [power.NumActiveModes]float64

	Policy policy.Stats

	// Prediction-quality attribution, populated only when an obs.Metrics
	// is attached (Config.Obs) and zero otherwise. All six are
	// deterministic: they derive from epoch-boundary decisions and
	// controller state alone, independent of shard count and scheduling
	// (obs attributes them on the engine goroutine at each epoch
	// boundary; shard workers never touch them). MeanAbsPredErr is the run
	// mean |measured - predicted| IBU over matured decisions;
	// UnderPredDecisions/OverPredDecisions count matured decisions whose
	// chosen mode undershot/overshot what the measured IBU called for;
	// UnderPredStallTicks charges wakeup stalls to under-prediction and
	// OverPredStaticWasteJ charges excess static energy to
	// over-prediction; PredDriftEvents counts Page-Hinkley drift fires.
	MeanAbsPredErr       float64
	UnderPredDecisions   int64
	OverPredDecisions    int64
	UnderPredStallTicks  int64
	OverPredStaticWasteJ float64
	PredDriftEvents      int64

	// Dataset holds the harvested training rows when CollectDataset.
	Dataset *ml.Dataset
	// Series holds the per-epoch time series when CollectSeries.
	Series *stats.Series

	// RouterOffFraction is each router's power-gated time fraction
	// (spatial structure of the gating decisions).
	RouterOffFraction []float64
	// RouterAvgMode is each router's residency-weighted mean active mode
	// index (0 = M3 .. 4 = M7), for spatial DVFS views.
	RouterAvgMode []float64
}

// EDP returns the energy-delay product (total energy x run time in
// seconds).
func (r *Result) EDP() float64 {
	return (r.StaticJ + r.DynamicJ) * timing.Tick(r.Ticks).Seconds()
}

// TotalJ returns total energy.
func (r *Result) TotalJ() float64 { return r.StaticJ + r.DynamicJ }

// span is a half-open router-ID range.
type span struct{ lo, hi int }

// shardState is one contiguous row-aligned partition of the router ID
// space. Every field but the claim barrier's atomics is owned by the
// shard: during a concurrent sweep only the goroutine that claimed the
// shard touches it (the boundary-isolation predicate guarantees no
// cross-shard calls), and outside sweeps the engine goroutine owns
// everything.
type shardState struct {
	lo, hi int // router ID range [lo, hi)

	// active is the shard's slice of the active-set bitset: bit i of
	// word w is router lo + 64*w + i. Separate per-shard words keep
	// concurrent sweeps from sharing cache lines or racing on a word
	// that spans a shard boundary.
	active []uint64
	// loopPos is the sweep cursor: shard routers with ID < loopPos have
	// been stepped this tick. Reset to lo before each tick's serial
	// phase, hi after the shard's sweep.
	loopPos int
	// ids is the scratch buffer for fast-forward membership sweeps,
	// reused across ticks.
	ids []int

	lazyTicks int64 // router-ticks covered by deferred catch-up
	swept     int64 // router-ticks actually stepped by this shard's worker
	sweeps    int64 // active-set sweeps of this shard

	// Arm min-heap (parallel arrays, keyed by armT): deferred routers
	// whose only pending event is their idle-gating countdown, keyed by
	// the absolute tick that countdown fires (satellite re-arm path; see
	// engine.arm).
	armT []int64
	armR []int32

	// Claim barrier state (barrier.go): claimed is reset by the engine
	// for each concurrent tick and won by whichever goroutine sweeps the
	// shard; park is the shard worker's wake handshake.
	claimed atomic.Uint32
	park    parker

	_ [64]byte // pad: keep neighboring shards off one cache line
}

// Per-shard active-set bitset primitives.
func (s *shardState) inSet(r int) bool {
	i := r - s.lo
	return s.active[i>>6]&(1<<uint(i&63)) != 0
}
func (s *shardState) setBit(r int) {
	i := r - s.lo
	s.active[i>>6] |= 1 << uint(i&63)
}
func (s *shardState) clearBit(r int) {
	i := r - s.lo
	s.active[i>>6] &^= 1 << uint(i&63)
}

// activeIDs appends the IDs of the shard's active-set routers, ascending.
func (s *shardState) activeIDs(buf []int) []int {
	for wi, w := range s.active {
		base := s.lo + wi<<6
		for w != 0 {
			buf = append(buf, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return buf
}

// armPush inserts (at, r) into the arm heap.
func (s *shardState) armPush(at int64, r int) {
	s.armT = append(s.armT, at)
	s.armR = append(s.armR, int32(r))
	i := len(s.armT) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s.armT[p] <= s.armT[i] {
			break
		}
		s.armT[p], s.armT[i] = s.armT[i], s.armT[p]
		s.armR[p], s.armR[i] = s.armR[i], s.armR[p]
		i = p
	}
}

// armPop removes and returns the earliest heap entry.
func (s *shardState) armPop() (int64, int) {
	at, r := s.armT[0], int(s.armR[0])
	last := len(s.armT) - 1
	s.armT[0], s.armR[0] = s.armT[last], s.armR[last]
	s.armT, s.armR = s.armT[:last], s.armR[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		m := l
		if rc := l + 1; rc < last && s.armT[rc] < s.armT[l] {
			m = rc
		}
		if s.armT[i] <= s.armT[m] {
			break
		}
		s.armT[i], s.armT[m] = s.armT[m], s.armT[i]
		s.armR[i], s.armR[m] = s.armR[m], s.armR[i]
		i = m
	}
	return at, r
}

// engine ties network, controller and meters together for one run.
type engine struct {
	cfg   Config
	ctrl  *policy.Controller
	net   *network.Network
	meter []power.Meter
	ext   FeatureExtractor

	ibuNum    []int64 // per router: summed occupied slots this epoch
	slotsPerR int64
	pending   [][]float64 // features awaiting next epoch's label
	dataset   *ml.Dataset

	// Observability (package obs). obsM owns the per-epoch series and
	// derives its counts from the engine's and the controller's at each
	// fold; tr emits engine-phase spans. Both are nil unless attached (or,
	// for obsM, implied by CollectSeries), and every use is a branch on
	// the nil pointer.
	obsM *obs.Metrics
	tr   *obs.Tracer
	// pred is the selector's IBUPredictor view (nil for selectors that
	// predict nothing), resolved once so the boundary sweep hands obsM
	// each decision's predicted IBU without a per-router type assertion.
	pred policy.IBUPredictor

	latencies  []int64
	sumLatency int64
	nLatency   int64

	ffTicks          int64 // ticks covered by quiescent-window skips
	horizonTicks     int64 // ticks covered by non-quiescent horizon skips
	parallelTicks    int64 // ticks swept concurrently across shards
	parallelLandings int64 // due wire transits landed by shard workers

	// Active-set scheduling state (see DESIGN.md §5b/§5c). A router is in
	// the active set iff the per-tick loop must visit it: it has buffered
	// flits, holds securing claims, or has a pending autonomous power
	// transition. Deferred routers change nothing per tick except
	// residency billing and clock-domain phase, so they are caught up in
	// closed form when next touched; deferred routers whose idle-gating
	// countdown is still pending additionally sit on their shard's arm
	// heap and rejoin the schedule at exactly the gating tick.
	lazy      bool
	shards    []shardState
	shardOf   []uint8 // owning shard of each router
	lastTick  []int64 // per router: first tick not yet accounted
	armTick   []int64 // per router: tick it is armed to rejoin at, -1 if none
	curTick   int64   // tick currently being processed
	margins   []span  // boundary margin routers, must be inert to sweep concurrently
	minActive int     // resolved ShardMinActive

	// occ aliases the network slab's occupancy plane (one int32 per
	// router), so the hot predicates (IBU accumulation, deferral checks)
	// read a flat array instead of dereferencing *Router.
	occ []int32

	// Scratch for the per-shard slices of an obs.EpochFold reading.
	shardLoadBuf, shardSweepBuf []int64

	bar       tickBarrier
	exited    sync.WaitGroup // joins the shard workers at stopWorkers
	workersUp bool

	nextID uint64

	// Stepping state shared by Run's one-shot loop and Session's
	// caller-driven windows (stepUntil). entries is the pending
	// injection schedule — the trace's entries for Run, the
	// incrementally scheduled transfers for a Session — with cursor the
	// first unconsumed index; tick is the next base tick to process and
	// drained records a drain-mode stop (source exhausted, network
	// empty).
	entries   []traffic.Entry
	cursor    int
	tick      int64
	drained   bool
	ffEnabled bool
	// nextInj is the workload's event-horizon watermark (nil when no
	// workload is attached, or when the workload does not implement
	// traffic.NextInjector — in which case ffEnabled is forced off,
	// since an opaque Tick callback may inject at any base tick).
	nextInj traffic.NextInjector
}

// canDefer reports whether a router may leave the active set: no
// buffered flit, no securing claim (which also rules out queued
// injections and in-flight wire traffic toward it), and no pending
// autonomous power transition. While all three hold, a tick changes
// nothing about the router beyond residency billing and clock-domain
// phase, both of which catch-up reproduces exactly.
func (e *engine) canDefer(r int) bool {
	return e.ctrl.Dormant(r) && e.occ[r] == 0 && !e.net.Secured(r)
}

// canArm reports whether a non-dormant router may still be deferred by
// re-arming: idle, unsecured, and its only pending autonomous event is
// the idle-gating countdown, whose firing tick TicksToNextEvent predicts
// exactly (the router's clock phase cannot drift while deferred — only
// catch-up advances it, by the same closed form eager ticking uses).
func (e *engine) canArm(r int) bool {
	return e.ctrl.IdleGatingOnly(r) && e.occ[r] == 0 && !e.net.Secured(r)
}

// arm schedules a deferred idle-countdown router to rejoin the schedule
// at the tick its gating fires. next is the next tick that will be
// processed from the router's perspective (tick+1 when arming from a
// sweep, the boundary tick from refreshActive); the router's next local
// cycle fires TicksToNextEvent ticks after that.
func (e *engine) arm(s *shardState, r int, next int64) {
	at := next + e.ctrl.TicksToNextEvent(r)
	if e.armTick[r] == at {
		return // still armed for the same tick; reuse the heap entry
	}
	e.armTick[r] = at
	s.armPush(at, r)
}

// popArms moves every router armed for this tick back onto the schedule,
// caught up through the ticks it sat out; its pending gating then fires
// during the normal sweep of this tick, exactly as eager stepping would
// have fired it. Entries whose armTick no longer matches are stale — the
// router was woken early (WakeRequest cleared armTick) or re-armed — and
// are discarded. A matching entry with an earlier tick means the engine
// skipped past a scheduled event, which would silently corrupt the
// closed-form catch-up, so it panics.
func (e *engine) popArms(tick int64) {
	for si := range e.shards {
		s := &e.shards[si]
		for len(s.armT) > 0 && s.armT[0] <= tick {
			at, r := s.armPop()
			if e.armTick[r] != at {
				continue
			}
			if at != tick {
				panic(fmt.Sprintf("sim: router %d armed for tick %d popped at tick %d", r, at, tick))
			}
			e.armTick[r] = -1
			e.catchUpTo(r, tick)
			s.setBit(r)
		}
	}
}

// catchUpTo replays the deferred window [lastTick[r], target) for a
// router in closed form: batched static billing at its (constant)
// billing state, zero occupancy contribution (its buffers were empty
// throughout), and clock-domain/cycle-counter advancement. Exactness
// rests on the same arguments as the quiescent-window fast-forward
// (DESIGN.md §5a): the meter counts integer residency ticks, and a
// deferred router's billing state cannot change inside the window (an
// armed router's window ends no later than its gating tick).
func (e *engine) catchUpTo(r int, target int64) {
	delta := target - e.lastTick[r]
	if delta <= 0 {
		return
	}
	mode, wt := e.ctrl.BillingState(r)
	e.meter[r].AddStatic(mode, wt, delta)
	if cycles := e.ctrl.FastForward(r, delta); cycles > 0 {
		e.net.Routers[r].SkipCycles(cycles)
	}
	// Owner-only: during a concurrent sweep this is only reached via
	// WakeRequest, whose targets the isolation predicate keeps inside the
	// calling shard.
	e.shards[e.shardOf[r]].lazyTicks += delta
	e.lastTick[r] = target
}

// catchUpAll advances every lagging router to target — the epoch
// boundary barrier (IBU, features, series snapshots and meter sums must
// be computed from fully-advanced state) and the end-of-run flush.
func (e *engine) catchUpAll(target int64) {
	for r := range e.lastTick {
		if e.lastTick[r] < target {
			e.catchUpTo(r, target)
		}
	}
}

// refreshActive recomputes active-set membership for every router. It
// runs at engine start (from = 0) and after each epoch-boundary sweep
// (from = the boundary tick), which can start voltage switches on
// routers that were deferred (the selector runs for all active-state
// routers, scheduled or not); those must re-arm onto the schedule until
// the switch completes. Routers whose only pending event is the
// idle-gating countdown are deferred with an arm at the gating tick.
func (e *engine) refreshActive(from int64) {
	for si := range e.shards {
		s := &e.shards[si]
		for r := s.lo; r < s.hi; r++ {
			if e.canDefer(r) {
				e.armTick[r] = -1
				s.clearBit(r)
			} else if e.canArm(r) {
				e.arm(s, r, from)
				s.clearBit(r)
			} else {
				e.armTick[r] = -1
				s.setBit(r)
			}
		}
	}
}

// netView adapts the network for policy.NetView.
type netView struct{ n *network.Network }

func (v netView) BuffersEmpty(r int) bool { return v.n.Routers[r].BuffersEmpty() }
func (v netView) Secured(r int) bool      { return v.n.Secured(r) }

// PacketDelivered implements network.Sink. The network calls it serially
// on the engine goroutine (Commit delivers after the worker barrier).
func (e *engine) PacketDelivered(p *flit.Packet, core int, now int64) {
	e.sumLatency += p.Latency()
	e.nLatency++
	e.latencies = append(e.latencies, p.Latency())
	if e.obsM != nil {
		e.obsM.PacketLatency(p.Latency())
	}
	if e.cfg.Workload != nil {
		e.cfg.Workload.PacketDelivered(p, core, now)
	}
}

// FlitHopped implements network.HopObserver: bill dynamic energy at the
// moving router's current mode.
func (e *engine) FlitHopped(routerID int) {
	e.meter[routerID].AddHop(e.ctrl.Mode(routerID))
}

// CanAccept implements network.PowerView by delegating to the
// controller; the engine interposes on the interface for WakeRequest.
func (e *engine) CanAccept(routerID int) bool { return e.ctrl.CanAccept(routerID) }

// WakeRequest implements network.PowerView: it is the single activation
// funnel of the active set. Every way a deferred router can be handed
// work — an injection claim at an attached core, a head flit buffered
// upstream and routed toward it, a path punch — raises a securing claim
// or an explicit punch, and both call here before any flit can land. A
// deferred router is first caught up (billing its deferred window at
// the pre-wake state and restoring its clock phase/cycle counter, which
// AcceptFlit's ReadyCycle stamp depends on), then re-enters the
// schedule — cancelling any pending arm — and only then does the
// controller see the wake.
//
// During a concurrent sweep the boundary-isolation predicate guarantees
// every call targets a router of the calling shard, so the per-shard
// state touched here is owner-only.
func (e *engine) WakeRequest(routerID int) {
	if e.lazy {
		s := &e.shards[e.shardOf[routerID]]
		if !s.inSet(routerID) {
			target := e.curTick
			if routerID < s.loopPos {
				// The sweep already passed this router's slot for the
				// current tick; in an all-eager run it would have been
				// stepped this tick in its still-deferred state, so the
				// closed form covers the current tick too and the router
				// rejoins the schedule from the next tick.
				target++
			}
			e.armTick[routerID] = -1
			e.catchUpTo(routerID, target)
			s.setBit(routerID)
		}
	}
	e.ctrl.WakeRequest(routerID)
}

// stepRouter runs one router's per-tick work: static billing, IBU
// accumulation, and the power-state machine with a network cycle (staged
// through the shard's lane) when the router's clock fires.
func (e *engine) stepRouter(r, shard int) {
	e.shards[shard].swept++
	mode, wt := e.ctrl.BillingState(r)
	e.meter[r].AddStatic(mode, wt, 1)
	e.ibuNum[r] += int64(e.occ[r])
	if e.ctrl.Advance(r) {
		e.net.CycleRouter(r, shard)
		e.ctrl.PostCycle(r)
	}
}

// sweepShard steps the shard's active-set routers in ascending router
// order (the order the eager sweep uses). Re-reading the bitset word
// after each step picks up routers activated mid-sweep at a higher ID —
// they are stepped this tick, exactly like the eager sweep would — while
// routers activated at an ID already passed were caught up through this
// tick at activation.
func (e *engine) sweepShard(si int, tick int64) {
	s := &e.shards[si]
	s.sweeps++
	for wi := range s.active {
		base := s.lo + wi<<6
		w := s.active[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			r := base + b
			s.loopPos = r
			e.stepRouter(r, si)
			e.lastTick[r] = tick + 1
			if e.canDefer(r) {
				s.clearBit(r)
			} else if e.canArm(r) {
				e.arm(s, r, tick+1)
				s.clearBit(r)
			}
			w = s.active[wi] & (^uint64(0) << uint(b+1))
		}
	}
	s.loopPos = s.hi
}

// parallelOK decides whether this tick's sweep may run concurrently. It
// returns "" to sweep concurrently, otherwise the reason for the serial
// fallback, which the tracer tags the serial-sweep span with. The active
// set must be large enough to amortize the barrier, and every router in
// the two rows on each side of every shard boundary must be inert (empty
// and unsecured; evaluated after this tick's wire landings and
// injections). Inert margin rows isolate the shards for one tick:
// any router that can move a flit is then at least two rows from a
// boundary, its neighbors (one row away) are all in-shard, a flit it
// moves lands one row further in at most, and — with Pipeline >= 2 — a
// freshly landed flit cannot move again this tick, so the farthest
// effect is a securing claim on the boundary's own-side row. In-flight
// wire traffic toward a margin row cannot be missed: its destination
// holds a securing claim until the tail lands, which makes the row
// non-inert. See DESIGN.md §5c for the full argument.
func (e *engine) parallelOK() string {
	if len(e.shards) == 1 {
		return "single-shard"
	}
	if e.activeCount() < e.minActive {
		return "below-min-active"
	}
	for _, m := range e.margins {
		// Bulk slab scan: the margin walk runs on every candidate
		// parallel tick, so it reads the occupancy plane and secured
		// counts as flat slices instead of calling Inert per router.
		if !e.net.RangeInert(m.lo, m.hi) {
			return "margin-not-inert"
		}
	}
	return ""
}

// activeCount is the current active-set population (every router when
// active-set scheduling is off).
func (e *engine) activeCount() int {
	if !e.lazy {
		return len(e.ibuNum)
	}
	n := 0
	for si := range e.shards {
		for _, w := range e.shards[si].active {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// reading gathers the cumulative counts the engine and the controller
// keep, as of tick now, into an obs.EpochFold: the only copy an obs fold
// sees, and the source of Result's diagnostics. Its per-shard slices are
// the engine's scratch buffers, valid until the next call.
func (e *engine) reading(now int64) obs.EpochFold {
	hits, misses := e.net.PoolStats()
	f := obs.EpochFold{
		Now:                 now,
		FlitsDelivered:      e.net.FlitsDelivered(),
		ActiveRouters:       e.activeCount(),
		PoolHits:            hits,
		PoolMisses:          misses,
		ShardLoad:           e.shardLoadBuf,
		ShardSweeps:         e.shardSweepBuf,
		Policy:              e.ctrl.Stats(),
		WakeOffTicks:        e.ctrl.EndedOffTicks(),
		ParallelTicks:       e.parallelTicks,
		ParallelLandings:    e.parallelLandings,
		FastForwardedTicks:  e.ffTicks,
		HorizonSkippedTicks: e.horizonTicks,
	}
	for si := range e.shards {
		s := &e.shards[si]
		f.LazyTicks += s.lazyTicks
		e.shardLoadBuf[si] = s.swept
		e.shardSweepBuf[si] = s.sweeps
	}
	return f
}

// Run executes one simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.forSession {
		return nil, errors.New("sim: session configs run through NewSession")
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	defer e.stopWorkers()
	e.stepUntil(e.cfg.MaxTicks, true)
	e.finish()
	return e.result(e.tick, e.drained), nil
}

// newEngine validates the config and builds a ready-to-step engine:
// network, controller, shard layout, observability wiring and initial
// active-set membership. Run and NewSession share it.
func newEngine(cfg Config) (*engine, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	nR := cfg.Topo.NumRouters()
	e := &engine{
		cfg:     cfg,
		ctrl:    policy.NewController(nR, cfg.Spec),
		meter:   make([]power.Meter, nR),
		ibuNum:  make([]int64, nR),
		pending: make([][]float64, nR),
	}
	// The engine, not the controller, is the network's PowerView: its
	// WakeRequest wrapper is the active-set activation hook.
	e.net = network.New(cfg.Topo, cfg.VCs, cfg.Depth, cfg.Pipeline, e, e, e)
	e.net.SetLinkTicks(cfg.LinkTicks)
	e.ctrl.SetNetView(netView{e.net})
	e.ext = cfg.Extractor
	if e.ext == nil {
		e.ext = features.NewExtractor(cfg.Topo)
	}
	if cfg.CollectDataset {
		names := features.Names[:]
		if n, ok := e.ext.(featureNamer); ok {
			names = n.FeatureNames()
		}
		e.dataset = ml.NewDataset(names)
	}
	_, slots := e.net.Routers[0].Occupancy()
	e.slotsPerR = int64(slots)
	e.occ = e.net.OccupiedSlots()

	// Shard layout (DESIGN.md §5g): contiguous row-aligned router ranges,
	// rows spread as evenly as K divides them, fixed for the run. With
	// K = 1 this is one shard covering the mesh and the sweep is exactly
	// the serial engine. Each boundary's margin is the two rows on either
	// side of it, which parallelOK must find inert.
	width, rows := cfg.Topo.Width(), cfg.Topo.Height()
	k := cfg.Shards
	e.shards = make([]shardState, k)
	e.shardOf = make([]uint8, nR)
	e.minActive = cfg.ShardMinActive
	e.shardLoadBuf = make([]int64, k)
	e.shardSweepBuf = make([]int64, k)
	row := 0
	for si := range e.shards {
		if si > 0 {
			e.margins = append(e.margins, span{max(row-2, 0) * width, min(row+2, rows) * width})
		}
		h := rows / k
		if si < rows%k {
			h++
		}
		s := &e.shards[si]
		s.lo, s.hi = row*width, (row+h)*width
		s.active = make([]uint64, (s.hi-s.lo+63)/64)
		s.loopPos = s.lo
		for r := s.lo; r < s.hi; r++ {
			e.shardOf[r] = uint8(si)
		}
		row += h
	}
	e.net.SetShards(k)
	e.ctrl.SetStatsLanes(e.shardOf, k)

	// Observability wiring. Every obs hook runs on the engine goroutine.
	if cfg.Obs != nil {
		e.obsM = cfg.Obs.Metrics
		e.tr = cfg.Obs.Tracer
	}
	if e.obsM == nil && cfg.CollectSeries {
		e.obsM = obs.NewMetrics()
	}
	runLabel := cfg.Spec.Name + "/workload"
	if cfg.forSession {
		runLabel = cfg.Spec.Name + "/session"
	}
	if cfg.Trace != nil {
		runLabel = cfg.Spec.Name + "/" + cfg.Trace.Name
	}
	if e.obsM != nil {
		e.obsM.BindRun(runLabel, e.meter, cfg.EpochTicks, cfg.CollectSeries)
		e.pred, _ = e.ctrl.Spec().Selector.(policy.IBUPredictor)
	}
	if e.tr != nil {
		e.tr.BeginRun(runLabel, k)
	}

	e.lazy = !cfg.Reference
	if e.lazy {
		e.lastTick = make([]int64, nR)
		e.armTick = make([]int64, nR)
		for r := range e.armTick {
			e.armTick[r] = -1
		}
		// Initial membership mirrors the steady-state invariant: only
		// routers that cannot defer (e.g. a spec whose initial power state
		// has a pending transition) start on the schedule. Idle dormant
		// routers begin deferred at tick 0 — the catch-up closed form
		// reproduces their eager ticks exactly — which also keeps the
		// active set free of deferrable members at every fast-forward
		// check, so LazySkippedRouterTicks is identical whether or not
		// fast-forward engages (e.g. under an opaque workload).
		e.refreshActive(0)
	}

	if cfg.Trace != nil {
		e.entries = cfg.Trace.Entries
		// One packet per entry and deliveries never exceed injections, so
		// this capacity makes the per-delivery latency append allocation-free.
		e.latencies = make([]int64, 0, len(e.entries))
	}
	e.ffEnabled = !cfg.Reference
	if cfg.Workload != nil {
		if inj, ok := cfg.Workload.(traffic.NextInjector); ok {
			e.nextInj = inj
		} else {
			// Without a watermark the workload may inject at any tick, so
			// every base tick must call Tick: no skipping is sound.
			e.ffEnabled = false
		}
	}
	return e, nil
}

// ffRouter advances one router across a skipped window of delta base
// ticks: residency billing in its current (frozen) billing state,
// controller catch-up in closed form, and empty-cycle replay for each
// fired local cycle. Occupancy is zero for every router across a skipped
// window (BufferedFlits was zero and nothing lands mid-window), so
// ibuNum is untouched and SkipCycles' empty-router replay is exact.
// Routers holding securing claims take the FastForwardSecured variant —
// eager stepping would have run PostCycle with the secured bit set after
// every fired cycle — and the secured set cannot change inside the
// window (claims are only raised by injections, landings and flit
// forwarding, and only released by flit movement, all of which bound the
// window), so sampling it once here is exact.
func (e *engine) ffRouter(r int, delta int64) {
	mode, wt := e.ctrl.BillingState(r)
	e.meter[r].AddStatic(mode, wt, delta)
	var cycles int64
	if e.net.Secured(r) {
		cycles = e.ctrl.FastForwardSecured(r, delta)
	} else {
		cycles = e.ctrl.FastForward(r, delta)
	}
	if cycles > 0 {
		e.net.Routers[r].SkipCycles(cycles)
	}
}

// injectNow hands a packet to the network at the tick currently being
// processed (curTick), stamping it and punching its path.
func (e *engine) injectNow(p *flit.Packet) {
	p.ID = e.nextID
	e.nextID++
	p.InjectAt = e.curTick
	e.net.Inject(p)
	if !e.cfg.NoPathPunch {
		e.punchPath(p.SrcCore, p.DstCore)
	}
}

// stepUntil processes base ticks in [e.tick, limit). With drainStop set
// it additionally stops — returning true and recording e.drained — at
// the end of the first tick where the injection source is exhausted and
// the network empty, which is Run's termination rule; without it the
// window runs to limit regardless (a Session advancing wall-clock time
// on an idle or still-draining fabric). Run calls it once with
// limit = MaxTicks; a Session calls it repeatedly with successive
// window bounds, scheduling new entries in between. Both produce
// bit-identical per-tick state because this is the only tick loop.
func (e *engine) stepUntil(limit int64, drainStop bool) bool {
	cfg := &e.cfg
	nR := len(e.ibuNum)
	tick := e.tick
	defer func() { e.tick = tick }()
	for ; tick < limit; tick++ {
		// Event horizon: when every router buffer is empty, no router
		// cycle can move a flit, so the next tick where anything beyond
		// closed-form accounting happens is the earliest of: the next
		// pending injection (trace cursor or workload watermark), the
		// next wire arrival, the next controller timer (wakeup/switch
		// completion, idle-gating fire, armed gating tick), the next
		// local cycle of a router with packets queued at its cores
		// (injection happens inside that cycle), and the epoch boundary.
		// Every tick before that is "boring" — billing, idle counting and
		// clock phase are its only effects — so we jump there in closed
		// form; the interesting tick itself is processed normally below.
		// This subsumes the original quiescent-window fast-forward: fully
		// quiescent windows compute the same bounds and still count as
		// FastForwardedTicks, while windows skipped with flits riding
		// wires, packets queued, or claims held count as
		// HorizonSkippedTicks. See DESIGN.md §5h for the invariant
		// argument. In drain mode a run that is finished (source
		// exhausted, network empty) stops at the drain check instead of
		// skipping; a session window without drainStop may jump across
		// pure idle time toward the window limit.
		if e.ffEnabled && e.net.BufferedFlits() == 0 {
			sourceDone := e.cursor >= len(e.entries)
			if cfg.Workload != nil {
				sourceDone = cfg.Workload.Done()
			}
			if !(drainStop && sourceDone && !e.net.InFlight()) {
				// Cheap global bounds first; the per-member scans below
				// are skipped entirely once delta hits 0.
				delta := limit - tick
				if e.cursor < len(e.entries) {
					if b := e.entries[e.cursor].Time - tick; b < delta {
						delta = b
					}
				}
				if e.nextInj != nil {
					// Watermark and wire-due sentinels are MaxInt64;
					// subtracting the (non-negative) tick cannot overflow.
					if b := e.nextInj.NextInjectionTick(tick) - tick; b < delta {
						delta = b
					}
				}
				if b := (tick/cfg.EpochTicks+1)*cfg.EpochTicks - 1 - tick; b < delta {
					delta = b
				}
				if b := e.net.NextWireDue() - tick; b < delta {
					delta = b
				}
				// Only schedule members and armed gating ticks can bound the
				// window, and only schedule members need advancing: deferred
				// routers are dormant (no pending autonomous event, no
				// claims) by the active-set invariant, so they stay behind
				// and are caught up against the jumped clock when next
				// touched. An armed router's gating tick must be processed
				// normally, so the jump stops there (stale heap heads only
				// make the bound conservative). A member whose next local
				// cycle would inject a queued packet caps the jump at that
				// cycle's tick: injection is the one buffer-filling event
				// controller timers don't predict, and routers with queued
				// packets always hold securing claims (Inject raises the
				// claim before the wake request), so they are members.
				queued := e.net.HasQueued()
				for si := range e.shards {
					s := &e.shards[si]
					s.ids = s.activeIDs(s.ids[:0])
					if len(s.armT) > 0 {
						if b := s.armT[0] - tick; b < delta {
							delta = b
						}
					}
					for _, r := range s.ids {
						if delta <= 0 {
							break
						}
						if ev := e.ctrl.TicksToNextEvent(r); ev < delta {
							delta = ev
						}
						if queued && e.ctrl.CanAccept(r) && e.net.QueuedAtRouter(r) > 0 {
							if b := e.ctrl.TicksToNextCycle(r); b < delta {
								delta = b
							}
						}
					}
				}
				if delta > 0 {
					for si := range e.shards {
						for _, r := range e.shards[si].ids {
							e.ffRouter(r, delta)
							e.lastTick[r] += delta
						}
					}
					if e.nextInj != nil {
						e.nextInj.SkipTicks(tick, delta)
					}
					if e.net.Quiescent() {
						e.ffTicks += delta
						if e.tr != nil {
							e.tr.Span(obs.EngineTrack, "fast-forward", "", tick, delta)
						}
					} else {
						e.horizonTicks += delta
						if e.tr != nil {
							e.tr.Span(obs.EngineTrack, "horizon-skip", "", tick, delta)
						}
					}
					tick += delta
					if tick >= limit {
						break
					}
				}
			}
		}
		e.ctrl.SetNow(timing.Tick(tick))
		e.net.SetTick(tick)
		e.curTick = tick
		if e.lazy {
			for si := range e.shards {
				e.shards[si].loopPos = e.shards[si].lo
			}
			e.popArms(tick)
		}
		// Injections precede wire landings so the quiet-margin predicate
		// can be evaluated before any landing applies: both only raise
		// securing claims and wake requests against routers that are
		// already caught up (a landing's destination is secured, hence
		// scheduled, until the tail lands), so the two orders commute
		// bit-for-bit — see DESIGN.md §5d.
		for e.cursor < len(e.entries) && e.entries[e.cursor].Time <= tick {
			en := e.entries[e.cursor]
			e.injectNow(e.net.AcquirePacket(en.Src, en.Dst, en.Kind, tick))
			e.cursor++
		}
		if cfg.Workload != nil {
			cfg.Workload.Tick(tick, e.injectNow)
		}
		if e.lazy {
			if reason := e.parallelOK(); reason == "" {
				// A due transit into a boundary margin keeps its
				// destination secured — hence the margin non-inert and this
				// branch unreachable — so every landing bucketed here is
				// destination-shard-local and the workers can land and
				// sweep without cross-shard effects.
				staged := e.net.StageDueLandings(e.shardOf)
				e.parallelLandings += int64(staged)
				e.sweepConcurrent(tick)
				e.parallelTicks++
				if e.tr != nil {
					// Emitted after the barrier, from the engine goroutine —
					// the tracer is never touched by shard workers.
					for si := range e.shards {
						e.tr.Span(obs.ShardTrack(si), "sweep", "", tick, 1)
					}
					if staged > 0 {
						e.tr.Instant(obs.EngineTrack, "land", tick, int64(staged))
					}
					e.tr.Span(obs.EngineTrack, "parallel-tick", "", tick, 1)
				}
			} else {
				if e.tr != nil {
					e.tr.Span(obs.EngineTrack, "serial-sweep", reason, tick, 1)
				}
				e.net.DeliverDue()
				for si := range e.shards {
					e.sweepShard(si, tick)
				}
			}
		} else {
			if e.tr != nil {
				e.tr.Span(obs.EngineTrack, "sweep-eager", "", tick, 1)
			}
			e.net.DeliverDue()
			for r := 0; r < nR; r++ {
				e.stepRouter(r, 0)
			}
		}
		// Fold every shard's staged network effects (wire appends,
		// deliveries, counters) in deterministic shard-then-router order;
		// the aggregate reads below (InFlight, epoch snapshots) require
		// committed state.
		e.net.Commit()
		if (tick+1)%cfg.EpochTicks == 0 {
			if e.lazy {
				// Catch-up barrier: epoch IBU, feature vectors, series
				// snapshots and meter sums must see fully-advanced state.
				e.catchUpAll(tick + 1)
				if e.tr != nil {
					e.tr.Instant(obs.EngineTrack, "catch-up-barrier", tick+1, -1)
				}
			}
			e.epochBoundary(timing.Tick(tick + 1))
			if e.tr != nil {
				e.tr.Instant(obs.EngineTrack, "epoch", tick+1, -1)
			}
			if e.lazy {
				e.refreshActive(tick + 1)
			}
		}
		if !drainStop {
			continue
		}
		sourceDone := e.cursor >= len(e.entries)
		if cfg.Workload != nil {
			sourceDone = cfg.Workload.Done()
		}
		if sourceDone && !e.net.InFlight() {
			e.drained = true
			tick++
			return true
		}
	}
	return false
}

// finish flushes end-of-run state: the final catch-up, the trailing
// observability fold and the tracer's pending spans. Run calls it after
// its single stepUntil; a Session calls it from Close.
func (e *engine) finish() {
	if e.lazy {
		e.catchUpAll(e.tick)
	}
	if e.obsM != nil {
		// Fold whatever accrued after the last epoch boundary (partial
		// epochs, the final catch-up flush) so the snapshot covers the
		// whole run.
		e.obsM.FinishRun(e.reading(e.tick))
	}
	if e.tr != nil {
		// Close this run's pending spans and push them to the writer; the
		// error (if any) is sticky and resurfaces on the owner's final
		// Flush before it closes the file.
		e.tr.Flush() //nolint:errcheck
	}
}

// punchPath wakes the first PunchHops routers on the XY path from src to
// dst so gated routers charge up while the packet is still upstream
// (§III-B's look-ahead wake, Power Punch style). Routers beyond the punch
// horizon are woken one hop ahead as the head flit advances, which makes
// the scheme partially rather than fully non-blocking.
func (e *engine) punchPath(srcCore, dstCore int) {
	r := e.net.RouterOf(srcCore)
	last := e.net.RouterOf(dstCore)
	hops := e.cfg.PunchHops
	for {
		e.WakeRequest(r)
		if r == last {
			return
		}
		if hops > 0 {
			hops--
			if hops == 0 {
				return
			}
		}
		_, r = e.net.Lookahead(r, dstCore)
	}
}

// epochBoundary closes an epoch on every router: computes epoch IBU,
// labels the previous epoch's pending features, collects new features,
// runs the mode selector and reports each decision to obs.
func (e *engine) epochBoundary(now timing.Tick) {
	if e.lazy {
		// The §5b barrier precondition, asserted: every router must be
		// fully caught up before any epoch aggregate (IBU, features,
		// meter sums) is read. Sampling a deferred router's occupancy
		// mid-epoch without catchUpAll silently reads a stale window;
		// this turns that bug into a loud failure.
		for r := range e.lastTick {
			if e.lastTick[r] != int64(now) {
				panic(fmt.Sprintf("sim: epoch boundary at tick %d with router %d caught up only to tick %d — catchUpAll barrier missed (DESIGN.md §5b)", int64(now), r, e.lastTick[r]))
			}
		}
	}
	den := float64(e.slotsPerR) * float64(e.cfg.EpochTicks)
	sumIBU := 0.0
	for r := range e.ibuNum {
		ibu := float64(e.ibuNum[r]) / den
		sumIBU += ibu
		e.ibuNum[r] = 0
		if e.dataset != nil && e.pending[r] != nil {
			e.dataset.Add(e.pending[r], ibu)
		}
		feats := e.ext.Collect(r, e.net, e.ctrl, ibu, now)
		e.pending[r] = feats
		if e.ctrl.EpochBoundary(r, ibu, feats) && e.obsM != nil {
			pred := ibu
			if e.pred != nil {
				pred = e.pred.PredictIBU(r, ibu, feats)
			}
			e.obsM.EpochDecision(r, ibu, pred, e.ctrl.Mode(r))
		}
	}
	if e.obsM == nil {
		return
	}
	// The epoch fold owns everything derived: the stats.EpochSample (its
	// field computation is the engine's pre-obs code, so series CSVs are
	// byte-identical), residency/energy deltas, and the live snapshot. It
	// runs here — after Commit and the catch-up barrier — so the meters
	// and the counters it reads are exact.
	f := e.reading(int64(now))
	f.SumIBU = sumIBU
	driftFired := e.obsM.FoldEpoch(f, e.ctrl)
	if driftFired && e.tr != nil {
		// Mark the stale-weights moment on the engine track so the drift
		// is visible in the Chrome trace timeline next to the epoch scan.
		e.tr.Instant(obs.EngineTrack, "pred-drift", int64(now), e.obsM.DriftEvents())
	}
}

func (e *engine) result(ticks int64, drained bool) *Result {
	traceName := "workload"
	if e.cfg.forSession {
		traceName = "session"
	}
	if e.cfg.Trace != nil {
		traceName = e.cfg.Trace.Name
	}
	f := e.reading(ticks)
	shardLoad := append([]int64(nil), f.ShardLoad...)
	res := &Result{
		Model:                  e.cfg.Spec.Name,
		Trace:                  traceName,
		Ticks:                  ticks,
		Drained:                drained,
		FastForwardedTicks:     f.FastForwardedTicks,
		HorizonSkippedTicks:    f.HorizonSkippedTicks,
		LazySkippedRouterTicks: f.LazyTicks,
		ParallelTicks:          f.ParallelTicks,
		ParallelLandings:       f.ParallelLandings,
		ShardLoad:              shardLoad,
		ShardLoadImbalance:     obs.ShardImbalance(shardLoad),
		PacketsInjected:        e.net.PacketsInjected(),
		PacketsDelivered:       e.net.PacketsDelivered(),
		FlitsDelivered:         f.FlitsDelivered,
		Policy:                 f.Policy,
		Dataset:                e.dataset,
	}
	if e.nLatency > 0 {
		res.AvgLatencyTicks = float64(e.sumLatency) / float64(e.nLatency)
		res.AvgLatencyNS = res.AvgLatencyTicks * timing.TickSeconds * 1e9
	}
	res.Latency = stats.Summarize(e.latencies)
	if e.cfg.CollectSeries && e.obsM != nil {
		res.Series = e.obsM.Series()
	}
	if e.obsM != nil {
		snap := e.obsM.Snapshot()
		res.MeanAbsPredErr = snap.MeanAbsPredErr
		res.UnderPredDecisions = snap.UnderPredDecisions
		res.OverPredDecisions = snap.OverPredDecisions
		res.UnderPredStallTicks = snap.UnderPredStallTicks
		res.OverPredStaticWasteJ = snap.OverPredStaticWasteJ
		res.PredDriftEvents = snap.DriftEvents
	}
	if ticks > 0 {
		res.Throughput = float64(res.FlitsDelivered) / float64(ticks)
	}
	res.RouterOffFraction = make([]float64, len(e.meter))
	res.RouterAvgMode = make([]float64, len(e.meter))
	var total power.Meter
	for i := range e.meter {
		total.Add(&e.meter[i])
		if ticks > 0 {
			res.RouterOffFraction[i] = float64(e.meter[i].ResidencyTicks(power.Inactive)) / float64(ticks)
		}
		var activeTicks, weighted int64
		for m := 0; m < power.NumActiveModes; m++ {
			t := e.meter[i].ResidencyTicks(power.ActiveMode(m))
			activeTicks += t
			weighted += t * int64(m)
		}
		if activeTicks > 0 {
			res.RouterAvgMode[i] = float64(weighted) / float64(activeTicks)
		}
	}
	res.StaticJ = total.StaticJoules()
	res.DynamicJ = total.DynamicJoules()
	routerTicks := float64(ticks) * float64(len(e.meter))
	if routerTicks > 0 {
		res.OffFraction = float64(total.ResidencyTicks(power.Inactive)) / routerTicks
		res.WakeupFraction = float64(total.ResidencyTicks(power.Wakeup)) / routerTicks
		for i := 0; i < power.NumActiveModes; i++ {
			res.ModeResidency[i] = float64(total.ResidencyTicks(power.ActiveMode(i))) / routerTicks
		}
	}
	return res
}
