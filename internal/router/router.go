// Package router implements the cycle-level router microarchitecture: an
// input-buffered wormhole router with virtual channels (VCs), credit-based
// flow control, round-robin switch allocation over per-output request
// bitmasks, and look-ahead routing.
//
// Look-ahead routing (§III-A) means every flit arrives already carrying the
// output port it must take at this router (computed by the upstream router
// or the injection logic). The router therefore knows the downstream router
// of every buffered packet the moment its head flit arrives, which is what
// lets the power-gating scheme secure and wake downstream routers before
// packets block on them.
//
// Protocol deadlock between requests and responses is avoided by splitting
// the VCs into two message classes: requests travel in the lower half of
// the VC space, responses in the upper half.
package router

import (
	"fmt"
	"math/bits"

	"repro/internal/flit"
)

// MaxInputVCs bounds Ports×VCs: switch allocation keeps one request bit
// per input VC in a uint64 per output port.
const MaxInputVCs = 64

// Config sizes a router.
type Config struct {
	Ports      int // total ports: LocalPorts + 4 cardinals
	LocalPorts int // number of core (ejection/injection) ports
	VCs        int // virtual channels per input port (>= 2, even)
	Depth      int // flits of buffering per VC
	// Pipeline is the router pipeline depth in cycles: a flit accepted on
	// local cycle c may traverse the switch no earlier than cycle
	// c + Pipeline - 1 (look-ahead routing folds RC into the previous
	// hop; the remaining stages are VA/SA and ST). 1 = single-cycle.
	Pipeline int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.LocalPorts < 1:
		return fmt.Errorf("router: need at least one local port, got %d", c.LocalPorts)
	case c.Ports != c.LocalPorts+4:
		return fmt.Errorf("router: ports must be local+4, got %d with %d local", c.Ports, c.LocalPorts)
	case c.VCs < 2 || c.VCs%2 != 0:
		return fmt.Errorf("router: VCs must be even and >= 2, got %d", c.VCs)
	case c.Ports*c.VCs > MaxInputVCs:
		return fmt.Errorf("router: %d ports x %d VCs exceeds %d input VCs", c.Ports, c.VCs, MaxInputVCs)
	case c.Depth < 1:
		return fmt.Errorf("router: VC depth must be >= 1, got %d", c.Depth)
	case c.Pipeline < 1:
		return fmt.Errorf("router: pipeline depth must be >= 1, got %d", c.Pipeline)
	}
	return nil
}

// VCClassRange returns the half-open VC range [lo, hi) usable by a message
// kind: requests use the lower half, responses the upper half.
func (c Config) VCClassRange(k flit.Kind) (lo, hi int) {
	half := c.VCs / 2
	if k == flit.Request {
		return 0, half
	}
	return half, c.VCs
}

// Env is the router's connection to the fabric, implemented by the network.
// All calls happen synchronously during Router.Cycle.
type Env interface {
	// ForwardFlit carries f out of r's cardinal output port into the
	// downstream router's input VC outVC. The implementation must call
	// AcceptFlit on the downstream router.
	ForwardFlit(r *Router, outPort, outVC int, f *flit.Flit)
	// EjectFlit consumes f at r's local port.
	EjectFlit(r *Router, localPort int, f *flit.Flit)
	// CreditFreed reports that input (inPort, vc) of r freed one buffer
	// slot; the fabric returns the credit to the upstream router.
	CreditFreed(r *Router, inPort, vc int)
	// CanForward reports whether r's cardinal output port may transmit
	// this cycle (the downstream router is powered and active).
	CanForward(r *Router, outPort int) bool
	// HeadAccepted fires when a head flit enters r's input buffers; f
	// carries OutPort/NextRouter for r, so the fabric can secure and
	// punch-wake the downstream router.
	HeadAccepted(r *Router, f *flit.Flit)
	// TailForwarded fires when a tail flit leaves r through a cardinal
	// port, releasing r's claim on the downstream router.
	TailForwarded(r *Router, outPort int, f *flit.Flit)
	// FlitMoved fires for every flit r moves (forward or eject); the
	// caller bills dynamic hop energy at r's current mode.
	FlitMoved(r *Router, f *flit.Flit)
}

// vcState is one input virtual channel: a fixed-capacity FIFO of flits
// plus the routing state of the packet currently at its front.
type vcState struct {
	// q holds the buffered flits, front first. Its backing array is a
	// Depth-slot window of the slab's flit plane, so pushes and pops never
	// allocate.
	q []*flit.Flit

	outPort int32 // latched output port of the front packet
	outVC   int32 // allocated downstream VC, -1 until VC allocation
}

// pop removes the front flit, shifting the rest down within the fixed
// window (at most Depth-1 pointers).
func (v *vcState) pop() {
	n := copy(v.q, v.q[1:])
	v.q[n] = nil
	v.q = v.q[:n]
}

// Router is one router instance. It owns no clocking or power state; the
// simulation engine drives Cycle on the router's local clock and gates it
// with the power-management state machine.
//
// All per-router state except the movement counters lives in a shared
// Slab (see slab.go): the fields below are views into that slab's flat
// planes, so the engine's sweeps walk contiguous memory and building a
// network allocates one Router object per router. The public accessors
// are unchanged.
type Router struct {
	ID  int
	cfg Config

	// in[p*VCs+v] is input VC v of port p.
	in []vcState

	// occ and lc point at this router's slots in the slab's occupancy and
	// local-cycle planes: occupied input-buffer slots across all input
	// VCs, and the local cycle counter (pipeline timing base).
	occ *int32
	lc  *int64

	// credits[p*VCs+v] counts free slots in the downstream input VC v
	// behind cardinal output port p (slab view, flat per-port-per-VC
	// plane). Local (ejection) ports need no credits: the core consumes
	// one flit per cycle unconditionally.
	credits []int32
	// outVCBusy[p*VCs+v] marks a downstream VC claimed by an in-flight
	// packet; it is released when that packet's tail is forwarded.
	outVCBusy []bool
	// pendingToPort[p] counts packets buffered here whose latched or
	// precomputed route leaves through cardinal port p; used for
	// downstream securing (slab view).
	pendingToPort []int32

	// req[p] is output port p's switch-allocation request mask: bit
	// inPort*VCs+vc is set while the packet at the front of that input
	// VC is routed out of p — from the moment its head reaches the front
	// until its tail pops.
	req []uint64
	// saLast[p] is the input-VC index that last won output p; the next
	// allocation scans round-robin from just past it.
	saLast []int32
	// vcaNext[p] is output p's VC-allocation rotation.
	vcaNext []int32

	// Statistics.
	flitsForwarded int64
	flitsEjected   int64
}

// New builds a standalone router backed by a private one-slot slab. It
// panics on invalid configuration (router sizing is a programming error,
// not a runtime condition). Fabrics that build many routers should share
// one slab via NewSlab + NewInSlab.
func New(id int, cfg Config) *Router {
	return NewInSlab(id, NewSlab(1, cfg), 0)
}

// Config returns the router's configuration.
func (r *Router) Config() Config { return r.cfg }

// IsLocalPort reports whether p is a core port.
func (r *Router) IsLocalPort(p int) bool { return p < r.cfg.LocalPorts }

// HasSpace reports whether input (port, vc) can accept another flit. The
// fabric checks it before calling AcceptFlit for injection; forwarding
// relies on credits instead.
func (r *Router) HasSpace(inPort, vc int) bool {
	return len(r.in[inPort*r.cfg.VCs+vc].q) < r.cfg.Depth
}

// AcceptFlit places a flit into input (inPort, vc). The flit must carry its
// OutPort/NextRouter for this router. It panics on buffer overflow, which
// would indicate a credit-accounting bug.
func (r *Router) AcceptFlit(env Env, inPort, vc int, f *flit.Flit) {
	idx := inPort*r.cfg.VCs + vc
	s := &r.in[idx]
	n := len(s.q)
	if n >= r.cfg.Depth {
		panic(fmt.Sprintf("router %d: input (%d,%d) overflow", r.ID, inPort, vc))
	}
	s.q = s.q[:n+1]
	s.q[n] = f
	*r.occ++
	// A flit accepted between local cycles c and c+1 traverses the switch
	// no earlier than cycle c+Pipeline (1 = the next cycle).
	f.ReadyCycle = *r.lc + int64(r.cfg.Pipeline)
	if f.Head {
		r.pendingToPort[f.OutPort]++
		if n == 0 {
			r.latch(idx, s, f)
		}
		env.HeadAccepted(r, f)
	}
}

// latch records the route of head flit f, which has just reached the
// front of input VC idx, and raises its request on f's output port.
func (r *Router) latch(idx int, s *vcState, f *flit.Flit) {
	s.outPort = int32(f.OutPort)
	s.outVC = -1
	r.req[f.OutPort] |= 1 << idx
}

// Occupancy returns occupied and total input-buffer slots; the ratio is the
// instantaneous input buffer utilization (IBU) sampled by the DVFS logic.
// The occupied count is an aggregate maintained incrementally on every
// flit enqueue (AcceptFlit) and dequeue (popFront), so sampling it is
// O(1) — the engine's per-tick IBU accumulation never walks the VCs.
func (r *Router) Occupancy() (occupied, total int) {
	return int(*r.occ), r.cfg.Ports * r.cfg.VCs * r.cfg.Depth
}

// Occupied returns the occupied-slot aggregate alone (O(1)).
func (r *Router) Occupied() int { return int(*r.occ) }

// LocalCycle exposes the local cycle counter. A router deferred by the
// active-set scheduler lags here until caught up, so epoch-boundary
// probes can detect a missed catch-up barrier (DESIGN.md §5b).
func (r *Router) LocalCycle() int64 { return *r.lc }

// RecountOccupancy recomputes the occupied-slot count the slow way, by
// walking every input VC queue. It exists so tests (and debugging
// invariant checks) can prove the incremental aggregate returned by
// Occupancy never drifts from the ground truth.
func (r *Router) RecountOccupancy() int {
	n := 0
	for i := range r.in {
		n += len(r.in[i].q)
	}
	return n
}

// BuffersEmpty reports whether every input VC is empty (one of the paper's
// conditions for router idleness).
func (r *Router) BuffersEmpty() bool { return *r.occ == 0 }

// PendingToPort returns how many buffered packets are routed out of
// cardinal port p (downstream-securing input).
func (r *Router) PendingToPort(p int) int { return int(r.pendingToPort[p]) }

// FlitsForwarded and FlitsEjected expose movement counters.
func (r *Router) FlitsForwarded() int64 { return r.flitsForwarded }
func (r *Router) FlitsEjected() int64   { return r.flitsEjected }

// Credit returns one credit for downstream VC (outPort, vc); the fabric
// calls it when the downstream router frees a slot we filled.
func (r *Router) Credit(outPort, vc int) {
	if r.credits[outPort*r.cfg.VCs+vc] >= int32(r.cfg.Depth) {
		panic(fmt.Sprintf("router %d: credit overflow on (%d,%d)", r.ID, outPort, vc))
	}
	r.credits[outPort*r.cfg.VCs+vc]++
}

// SkipCycles advances the local cycle counter by n cycles without doing
// any switch allocation — the closed form of n Cycle calls on a router
// whose buffers are empty. Callers (the engine's fast-forward path) must
// guarantee the buffers really are empty: with flits buffered, skipping
// would let them bypass the pipeline-delay check against ReadyCycle.
func (r *Router) SkipCycles(n int64) {
	if *r.occ != 0 {
		panic(fmt.Sprintf("router %d: SkipCycles with %d flits buffered", r.ID, *r.occ))
	}
	*r.lc += n
}

// Cycle performs one local router cycle: switch allocation and traversal.
// At most one flit leaves per output port, and at most one flit leaves per
// input port (single crossbar input per port).
func (r *Router) Cycle(env Env) {
	*r.lc++
	if *r.occ == 0 {
		return
	}
	var used uint64 // bit inPort: that crossbar input already moved a flit
	for p := 0; p < r.cfg.Ports; p++ {
		if r.req[p] != 0 {
			used = r.serveOutput(env, p, used)
		}
	}
}

// serveOutput runs switch allocation for one output port: round-robin over
// the input VCs whose front packet requests this output, granting the
// first whose front flit is ready and can move. The scan visits the
// requesters in the order saLast+1 … Ports*VCs-1, 0 … saLast. It returns
// used with the winner's input port added.
func (r *Router) serveOutput(env Env, outPort int, used uint64) uint64 {
	local := r.IsLocalPort(outPort)
	if !local && !env.CanForward(r, outPort) {
		return used
	}
	vcs := r.cfg.VCs
	start := int(r.saLast[outPort]) + 1
	if start == r.cfg.Ports*vcs {
		start = 0
	}
	below := uint64(1)<<start - 1
	m := r.req[outPort]
	for _, set := range [2]uint64{m &^ below, m & below} {
		for ; set != 0; set &= set - 1 {
			idx := bits.TrailingZeros64(set)
			inPort := idx / vcs
			if used&(1<<inPort) != 0 {
				continue
			}
			s := &r.in[idx]
			if len(s.q) == 0 {
				continue
			}
			f := s.q[0]
			if f.ReadyCycle > *r.lc {
				continue
			}
			if local {
				r.eject(env, idx, s, f)
			} else if !r.forward(env, idx, outPort, s, f) {
				continue
			}
			r.saLast[outPort] = int32(idx)
			return used | 1<<inPort
		}
	}
	return used
}

// forward tries to move the front flit of input VC idx through cardinal
// port outPort; it returns false if VC allocation or credits block the
// move.
func (r *Router) forward(env Env, idx, outPort int, s *vcState, f *flit.Flit) bool {
	if s.outVC < 0 && !r.allocVC(outPort, s, f) {
		return false
	}
	outVC := int(s.outVC)
	c := outPort*r.cfg.VCs + outVC
	if r.credits[c] == 0 {
		return false
	}
	r.credits[c]--
	r.popFront(env, idx, s, f)
	if f.Tail {
		r.outVCBusy[c] = false
		env.TailForwarded(r, outPort, f)
	}
	r.flitsForwarded++
	env.FlitMoved(r, f)
	env.ForwardFlit(r, outPort, outVC, f)
	return true
}

// eject consumes the front flit of input VC idx at a local port (the
// attached core accepts one flit per cycle unconditionally).
func (r *Router) eject(env Env, idx int, s *vcState, f *flit.Flit) {
	localPort := int(s.outPort)
	r.popFront(env, idx, s, f)
	r.flitsEjected++
	env.FlitMoved(r, f)
	env.EjectFlit(r, localPort, f)
}

// popFront removes the front flit of input VC idx and returns its buffer
// credit upstream. A tail withdraws the packet's request; if another
// packet's head is queued behind it, that head now reaches the front and
// its route is latched.
func (r *Router) popFront(env Env, idx int, s *vcState, f *flit.Flit) {
	s.pop()
	*r.occ--
	if f.Tail {
		r.pendingToPort[s.outPort]--
		r.req[s.outPort] &^= 1 << idx
		s.outVC = -1
		if len(s.q) > 0 && s.q[0].Head {
			r.latch(idx, s, s.q[0])
		}
	}
	env.CreditFreed(r, idx/r.cfg.VCs, idx%r.cfg.VCs)
}

// allocVC claims a free downstream VC for the packet at the front of s,
// within the message-class VC range, rotating the starting VC per output
// port for fairness.
func (r *Router) allocVC(outPort int, s *vcState, f *flit.Flit) bool {
	lo, hi := r.cfg.VCClassRange(f.Pkt.Kind)
	span := hi - lo
	start := int(r.vcaNext[outPort])
	for i := 0; i < span; i++ {
		v := lo + (start+i)%span
		if !r.outVCBusy[outPort*r.cfg.VCs+v] {
			r.outVCBusy[outPort*r.cfg.VCs+v] = true
			s.outVC = int32(v)
			r.vcaNext[outPort] = int32((start + i + 1) % span)
			return true
		}
	}
	return false
}

// DrainState summarizes buffered traffic for debugging and invariants.
type DrainState struct {
	Occupied       int
	PendingPerPort []int
}

// Snapshot returns the router's drain state.
func (r *Router) Snapshot() DrainState {
	pp := make([]int, len(r.pendingToPort))
	for p, n := range r.pendingToPort {
		pp[p] = int(n)
	}
	return DrainState{Occupied: int(*r.occ), PendingPerPort: pp}
}
