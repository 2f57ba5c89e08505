// Package mcsim is a lightweight multicore full-system model — the
// substrate that stands in for the Multi2Sim simulator the paper used to
// gather its traces. It models cores with private L1 caches, a shared
// S-NUCA L2 whose banks are distributed one per router, and memory
// controllers at the mesh corners. Cores execute a fixed instruction
// budget; L1 misses become network request packets to the home L2 bank,
// L2 misses chain to a memory controller, and responses travel back as
// data packets.
//
// Crucially the model is *closed-loop*: a core stalls once its MSHRs are
// full, so network slowdowns (power-gating wakeups, low DVFS modes) feed
// back into injection and stretch application runtime — which is how
// real throughput loss manifests, complementing the open-loop trace
// replays used for the paper's figures.
package mcsim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/flit"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// CoreParams describe one core's synthetic workload.
type CoreParams struct {
	// IPC is the instruction throughput per base tick while unstalled.
	IPC float64
	// L1MPKI is L1 misses per kilo-instruction; every miss becomes a
	// network request.
	L1MPKI float64
	// L2MissFrac is the fraction of L2 accesses missing to memory.
	L2MissFrac float64
	// MSHRs bounds outstanding misses per core; at the bound the core
	// stalls (the closed-loop feedback).
	MSHRs int
	// Instructions is the core's total work.
	Instructions int64
	// Locality is the probability an access maps to an L2 bank within
	// two hops of the core.
	Locality float64
	// PhasePeriod/CommFrac/QuietScale shape compute vs. memory phases:
	// during the quiet (compute) window the MPKI is scaled by
	// QuietScale; during the memory window it is boosted to preserve the
	// long-run mean. Zero PhasePeriod disables phasing.
	PhasePeriod int64
	CommFrac    float64
	QuietScale  float64
}

// SystemParams describe the platform.
type SystemParams struct {
	Topo topology.Topology
	Core CoreParams // applied to every core
	// L2LatencyTicks is the bank access latency; MemLatencyTicks the
	// memory controller service latency.
	L2LatencyTicks  int64
	MemLatencyTicks int64
	Seed            int64
}

// DefaultSystem returns a medium-load configuration on the given
// topology.
func DefaultSystem(topo topology.Topology) SystemParams {
	return SystemParams{
		Topo: topo,
		Core: CoreParams{
			IPC:          1.0,
			L1MPKI:       6.0,
			L2MissFrac:   0.25,
			MSHRs:        8,
			Instructions: 200_000,
			Locality:     0.3,
			PhasePeriod:  12_000,
			CommFrac:     0.25,
			QuietScale:   0.1,
		},
		L2LatencyTicks:  20,
		MemLatencyTicks: 90,
		Seed:            1,
	}
}

func (p SystemParams) validate() error {
	c := p.Core
	switch {
	case p.Topo == nil:
		return fmt.Errorf("mcsim: nil topology")
	case c.IPC <= 0 || c.L1MPKI < 0 || c.MSHRs < 1 || c.Instructions < 1:
		return fmt.Errorf("mcsim: bad core params %+v", c)
	case c.L2MissFrac < 0 || c.L2MissFrac > 1:
		return fmt.Errorf("mcsim: bad L2 miss fraction %g", c.L2MissFrac)
	case p.L2LatencyTicks < 0 || p.MemLatencyTicks < 0:
		return fmt.Errorf("mcsim: negative latency")
	}
	return nil
}

// missStage tracks where a miss is in its request chain.
type missStage uint8

const (
	stageToL2    missStage = iota // request travelling core -> L2 bank
	stageToMem                    // request travelling L2 bank -> memory controller
	stageMemBack                  // response travelling MC -> L2 bank
	stageBack                     // response travelling L2 bank -> core
)

// miss is one outstanding L1 miss.
type miss struct {
	origin int // requesting core
	bank   int // home L2 bank core
	mem    int // memory controller core (if the L2 missed)
	stage  missStage
}

// event is a deferred injection (bank/MC service completion).
type event struct {
	at   int64
	src  int
	dst  int
	kind flit.Kind
	m    *miss
}

type eventHeap []event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// fpScale is the fixed-point denominator for per-core retirement and
// miss-credit accounting. Integer arithmetic here is what makes the
// event-horizon contract (NextInjectionTick / SkipTicks) exact: the
// credit accrued over a skipped window is a closed-form integer sum,
// bit-identical to adding the per-tick increment delta times, which a
// float accumulator cannot guarantee.
const fpScale = 1 << 20

const fpOne = int64(fpScale)

// System is the multicore workload; it implements sim.Workload,
// including the event-horizon watermark.
type System struct {
	p   SystemParams
	rng *rand.Rand

	retired     []int64 // fixed-point (fpScale) instructions per core
	missCredit  []int64 // fixed-point miss credit per core
	outstanding []int
	stalled     []int64 // stalled ticks per core (stats)

	// Fixed-point per-tick increments, precomputed from CoreParams:
	// ipcFP is retirement per unstalled tick, instrFP the per-core
	// budget, incComm/incQuiet the miss-credit increment during the
	// communication and quiet phase windows (equal when phasing is
	// disabled). commBound is the integer phase predicate: the tick is
	// in the communication window iff now%PhasePeriod < commBound.
	ipcFP     int64
	instrFP   int64
	incComm   int64
	incQuiet  int64
	commBound int64
	phased    bool

	inflight map[uint64]*miss // network packet ID -> miss
	events   eventHeap

	mcs    []int   // memory controller cores (corners)
	locals [][]int // per core: banks within 2 hops

	// totals
	missesIssued int64
	l2Misses     int64
}

var _ sim.Workload = (*System)(nil)

// New builds the workload.
func New(p SystemParams) (*System, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	t := p.Topo
	s := &System{
		p:           p,
		rng:         rand.New(rand.NewSource(p.Seed)),
		retired:     make([]int64, t.NumCores()),
		missCredit:  make([]int64, t.NumCores()),
		outstanding: make([]int, t.NumCores()),
		stalled:     make([]int64, t.NumCores()),
		inflight:    make(map[uint64]*miss),
	}
	cp := p.Core
	s.ipcFP = int64(math.Round(cp.IPC * fpScale))
	if s.ipcFP < 1 {
		return nil, fmt.Errorf("mcsim: IPC %g below fixed-point resolution 1/%d", cp.IPC, fpScale)
	}
	if cp.Instructions > math.MaxInt64/fpScale {
		return nil, fmt.Errorf("mcsim: instruction budget %d overflows fixed-point accounting", cp.Instructions)
	}
	s.instrFP = cp.Instructions * fpScale
	s.phased = cp.PhasePeriod > 0 && cp.CommFrac > 0 && cp.CommFrac < 1
	if s.phased {
		boost := (1 - cp.QuietScale*(1-cp.CommFrac)) / cp.CommFrac
		s.incComm = int64(math.Round(cp.IPC * cp.L1MPKI * boost / 1000 * fpScale))
		s.incQuiet = int64(math.Round(cp.IPC * cp.L1MPKI * cp.QuietScale / 1000 * fpScale))
		// Integer phase predicate: for integer x, x < y iff x < ceil(y),
		// so now%P < commBound replicates float64(now%P) < CommFrac*P.
		s.commBound = int64(math.Ceil(cp.CommFrac * float64(cp.PhasePeriod)))
	} else {
		s.incComm = int64(math.Round(cp.IPC * cp.L1MPKI / 1000 * fpScale))
		s.incQuiet = s.incComm
	}
	s.mcs = []int{
		t.CoreAt(t.RouterAt(0, 0), 0),
		t.CoreAt(t.RouterAt(t.Width()-1, 0), 0),
		t.CoreAt(t.RouterAt(0, t.Height()-1), 0),
		t.CoreAt(t.RouterAt(t.Width()-1, t.Height()-1), 0),
	}
	s.locals = make([][]int, t.NumCores())
	for c := range s.locals {
		for d := 0; d < t.NumCores(); d++ {
			if d != c && topology.Hops(t, c, d) <= 2 {
				s.locals[c] = append(s.locals[c], d)
			}
		}
	}
	return s, nil
}

// segmentAt returns the per-tick miss-credit increment in effect at tick
// t and the first tick after t at which it may change (the current phase
// window's end; MaxInt64 when phasing is disabled).
func (s *System) segmentAt(t int64) (inc, segEnd int64) {
	if !s.phased {
		return s.incComm, math.MaxInt64
	}
	pp := s.p.Core.PhasePeriod
	pos := t % pp
	if pos < s.commBound {
		return s.incComm, t + (s.commBound - pos)
	}
	return s.incQuiet, t + (pp - pos)
}

// Tick implements sim.Workload: advance cores, issue misses, fire due
// service events.
func (s *System) Tick(now int64, inject func(*flit.Packet)) {
	// Fire due bank/MC completions.
	for len(s.events) > 0 && s.events[0].at <= now {
		ev := heap.Pop(&s.events).(event)
		p := flit.New(0, ev.src, ev.dst, ev.kind, now)
		inject(p)
		s.inflight[p.ID] = ev.m
	}

	inc, _ := s.segmentAt(now)
	cp := s.p.Core
	for c := range s.retired {
		if s.retired[c] >= s.instrFP {
			continue // finished
		}
		if s.outstanding[c] >= cp.MSHRs {
			s.stalled[c]++
			continue
		}
		s.retired[c] += s.ipcFP
		s.missCredit[c] += inc
		for s.missCredit[c] >= fpOne && s.outstanding[c] < cp.MSHRs {
			s.missCredit[c] -= fpOne
			s.issueMiss(c, inject)
		}
	}
}

// issueMiss sends an L1-miss request from core c to its home L2 bank.
func (s *System) issueMiss(c int, inject func(*flit.Packet)) {
	bank := s.pickBank(c)
	m := &miss{origin: c, bank: bank, stage: stageToL2}
	p := flit.New(0, c, bank, flit.Request, 0)
	inject(p)
	s.inflight[p.ID] = m
	s.outstanding[c]++
	s.missesIssued++
}

// pickBank maps an access to its home L2 bank (address-hashed S-NUCA
// with a locality bias).
func (s *System) pickBank(c int) int {
	if s.rng.Float64() < s.p.Core.Locality && len(s.locals[c]) > 0 {
		return s.locals[c][s.rng.Intn(len(s.locals[c]))]
	}
	for {
		d := s.rng.Intn(s.p.Topo.NumCores())
		if d != c {
			return d
		}
	}
}

// PacketDelivered implements sim.Workload: advance the miss chain.
func (s *System) PacketDelivered(p *flit.Packet, core int, now int64) {
	m, ok := s.inflight[p.ID]
	if !ok {
		return // not ours (trace traffic can coexist in principle)
	}
	delete(s.inflight, p.ID)
	switch m.stage {
	case stageToL2:
		if s.rng.Float64() < s.p.Core.L2MissFrac {
			// L2 miss: forward to the closest memory controller.
			m.stage = stageToMem
			m.mem = s.closestMC(core)
			s.l2Misses++
			s.schedule(now+s.p.L2LatencyTicks, core, m.mem, flit.Request, m)
		} else {
			m.stage = stageBack
			s.schedule(now+s.p.L2LatencyTicks, core, m.origin, flit.Response, m)
		}
	case stageToMem:
		m.stage = stageMemBack
		s.schedule(now+s.p.MemLatencyTicks, core, m.bank, flit.Response, m)
	case stageMemBack:
		m.stage = stageBack
		s.schedule(now+2, core, m.origin, flit.Response, m)
	case stageBack:
		s.outstanding[m.origin]--
	}
}

func (s *System) schedule(at int64, src, dst int, kind flit.Kind, m *miss) {
	heap.Push(&s.events, event{at: at, src: src, dst: dst, kind: kind, m: m})
}

func (s *System) closestMC(core int) int {
	best, bestH := s.mcs[0], 1<<30
	for _, mc := range s.mcs {
		if mc == core {
			continue
		}
		if h := topology.Hops(s.p.Topo, core, mc); h < bestH {
			best, bestH = mc, h
		}
	}
	return best
}

// Done implements sim.Workload.
func (s *System) Done() bool {
	for c := range s.retired {
		if s.retired[c] < s.instrFP {
			return false
		}
	}
	return len(s.inflight) == 0 && len(s.events) == 0 && s.totalOutstanding() == 0
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// creditCrossing returns the first tick >= now at which core c's miss
// credit reaches a whole miss — its next injection opportunity, assuming
// the core retires uninterrupted from now on — or NoPendingInjection if
// that cannot happen before the core finishes its budget. The walk
// advances one phase segment at a time; the iteration cap only makes the
// answer conservative (an earlier tick that the engine then processes
// normally), never early.
func (s *System) creditCrossing(c int, now int64) int64 {
	if s.incComm <= 0 && s.incQuiet <= 0 {
		return traffic.NoPendingInjection
	}
	finish := now + ceilDiv(s.instrFP-s.retired[c], s.ipcFP) - 1
	credit := s.missCredit[c]
	t := now
	for iter := 0; iter < 32; iter++ {
		inc, segEnd := s.segmentAt(t)
		if inc > 0 {
			if k := ceilDiv(fpOne-credit, inc); k <= segEnd-t {
				if cross := t + k - 1; cross <= finish {
					return cross
				}
				return traffic.NoPendingInjection
			}
			credit += (segEnd - t) * inc
		}
		t = segEnd
		if t > finish {
			return traffic.NoPendingInjection
		}
	}
	return t
}

// NextInjectionTick implements sim.Workload: the earliest tick
// >= now at which Tick may inject a packet or Done may change, absent
// deliveries. Three sources bound it: the service-event heap (bank/MC
// completions re-inject at their due tick), each unstalled unfinished
// core's miss-credit crossing, and — once the system is retirement-only
// (nothing in flight, no events, no outstanding misses, hence no core
// can stall) — the tick the last core finishes, where Done flips and a
// draining run must stop.
func (s *System) NextInjectionTick(now int64) int64 {
	next := traffic.NoPendingInjection
	if len(s.events) > 0 {
		t := s.events[0].at
		if t < now {
			t = now
		}
		next = t
	}
	cp := s.p.Core
	for c := range s.retired {
		if s.retired[c] >= s.instrFP || s.outstanding[c] >= cp.MSHRs {
			// Finished cores never inject again; stalled cores need a
			// delivery first, and deliveries bound the engine's horizon
			// on their own (wire due, event heap).
			continue
		}
		if t := s.creditCrossing(c, now); t < next {
			next = t
		}
	}
	if len(s.inflight) == 0 && len(s.events) == 0 && s.totalOutstanding() == 0 {
		fin := int64(-1)
		for c := range s.retired {
			if s.retired[c] < s.instrFP {
				if f := now + ceilDiv(s.instrFP-s.retired[c], s.ipcFP) - 1; f > fin {
					fin = f
				}
			}
		}
		if fin >= now && fin < next {
			next = fin
		}
	}
	return next
}

// creditAccrued sums the per-tick miss-credit increments over the window
// [now, now+n), one phase segment at a time.
func (s *System) creditAccrued(now, n int64) int64 {
	var sum int64
	t, end := now, now+n
	for t < end {
		inc, segEnd := s.segmentAt(t)
		if segEnd > end {
			segEnd = end
		}
		sum += (segEnd - t) * inc
		t = segEnd
	}
	return sum
}

// SkipTicks implements sim.Workload: replay the accounting Tick
// would have performed over the skipped window [now, now+delta) in
// closed form. Finished cores do nothing; stalled cores accrue stalled
// time (they cannot unstall without a delivery, and deliveries end the
// window); running cores retire min(delta, remaining) ticks' worth of
// instructions and accrue miss credit. The engine only skips windows the
// watermark cleared, so a credit crossing inside one is a contract
// violation — detected loudly rather than silently dropping a miss.
func (s *System) SkipTicks(now, delta int64) {
	cp := s.p.Core
	accFull := int64(-1) // increments are core-independent; computed once
	for c := range s.retired {
		if s.retired[c] >= s.instrFP {
			continue
		}
		if s.outstanding[c] >= cp.MSHRs {
			s.stalled[c] += delta
			continue
		}
		n := delta
		if rem := ceilDiv(s.instrFP-s.retired[c], s.ipcFP); rem < n {
			n = rem
		}
		var acc int64
		if n == delta {
			if accFull < 0 {
				accFull = s.creditAccrued(now, delta)
			}
			acc = accFull
		} else {
			acc = s.creditAccrued(now, n)
		}
		s.retired[c] += n * s.ipcFP
		s.missCredit[c] += acc
		if s.missCredit[c] >= fpOne {
			panic(fmt.Sprintf("mcsim: SkipTicks(%d, %d) crossed core %d's miss-credit boundary — NextInjectionTick watermark violated", now, delta, c))
		}
	}
}

func (s *System) totalOutstanding() int {
	n := 0
	for _, o := range s.outstanding {
		n += o
	}
	return n
}

// Stats summarize the run.
type Stats struct {
	MissesIssued int64
	L2Misses     int64
	StalledTicks int64 // summed over cores
}

// Stats returns workload-side counters.
func (s *System) Stats() Stats {
	st := Stats{MissesIssued: s.missesIssued, L2Misses: s.l2Misses}
	for _, v := range s.stalled {
		st.StalledTicks += v
	}
	return st
}

// InstructionsRetired returns total retired instructions.
func (s *System) InstructionsRetired() int64 {
	var t int64
	for _, r := range s.retired {
		t += r / fpScale
	}
	return t
}
