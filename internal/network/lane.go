// Per-shard staging lanes. The sharded tick engine (sim, DESIGN.md §5c)
// steps disjoint router ranges concurrently inside one base tick; every
// network-global mutation a router cycle can cause — a wire append, a
// delivery completion, an aggregate counter change — is staged into the
// stepping shard's lane and merged by Commit in ascending shard order, so
// a concurrent sweep commits in exactly the order the serial sweep would
// have produced. Per-router state (buffers, credits, securing counts, the
// injection queues of attached cores) is owned by the router's shard and
// mutated directly; lanes stage only the state shards share.
//
// The serial engine uses the same machinery with a single lane, so there
// is one code path — and one semantics — for both schedules.
package network

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/router"
)

// delivery is a completed packet awaiting its sink callback (and pool
// recycling) at the next Commit. Deferring the callback out of the sweep
// keeps the sink single-threaded; it observes deliveries in the same
// ascending-router order the serial sweep fires them in.
type delivery struct {
	p    *flit.Packet
	core int
}

// lane is one shard's staging area. It implements router.Env: router
// cycles run against their shard's lane, which forwards per-router
// effects directly and stages shard-shared ones.
type lane struct {
	n *Network

	wire  []transit  // staged wire appends (merged FIFO at Commit)
	pend  []transit  // due transits bucketed for this shard (StageDueLandings)
	deliv []delivery // staged delivery callbacks

	// Aggregate counter deltas, folded into the Network at Commit.
	dFlitsInjected    int64
	dFlitsDelivered   int64
	dPacketsInjected  int64
	dPacketsDelivered int64
	dQueued           int
	dSecured          int

	// pool recycles the flits ejected by (and injected from) this shard's
	// routers. Flit objects migrate between lane pools as packets cross
	// shards; only object identity differs from a single shared pool.
	pool flit.Pool
}

var _ router.Env = (*lane)(nil)

// secure takes one claim on a router (which must belong to this lane's
// shard during a concurrent sweep) and raises a wake request. The
// per-router count is owned by the shard; only the network-wide total is
// staged.
func (l *lane) secure(routerID int) {
	l.n.secured[routerID]++
	l.dSecured++
	l.n.pv.WakeRequest(routerID)
}

func (l *lane) unsecure(routerID int) {
	l.n.secured[routerID]--
	l.dSecured--
	if l.n.secured[routerID] < 0 {
		panic(fmt.Sprintf("network: securing underflow on router %d", routerID))
	}
}

// land places a flit into its destination router and, for tails, releases
// the securing claim on that router (the packet now fully resides there,
// so its buffers keep it awake).
func (l *lane) land(dst, inPort, vc int, f *flit.Flit) {
	f.OutPort, f.NextRouter = l.n.wiring.lookahead(dst, f.Pkt.DstCore)
	l.n.Routers[dst].AcceptFlit(l, inPort, vc, f)
	if f.Tail {
		l.unsecure(dst)
	}
}

// injectCore moves at most one flit from core's source queue into the
// router's input buffers at localPort.
func (l *lane) injectCore(r *router.Router, core, localPort int) {
	n := l.n
	st := &n.inj[core]
	if st.flits == nil {
		if st.qhead == len(st.queue) {
			return
		}
		p := st.queue[st.qhead]
		// Claim a VC in the packet's message class with room for the head.
		vc, ok := n.pickInjVC(r, localPort, p.Kind)
		if !ok {
			return
		}
		// Pop like the wire FIFO: zero the slot so the delivered (and
		// pool-recycled) packet is not pinned by the backing array, and
		// compact once the dead prefix reaches the live length.
		st.queue[st.qhead] = nil
		st.qhead++
		if st.qhead == len(st.queue) {
			st.queue = st.queue[:0]
			st.qhead = 0
		} else if st.qhead >= len(st.queue)-st.qhead {
			m := copy(st.queue, st.queue[st.qhead:])
			tail := st.queue[m:]
			for i := range tail {
				tail[i] = nil
			}
			st.queue = st.queue[:m]
			st.qhead = 0
		}
		st.flits = l.pool.GetFlits(p)
		st.nextSeq = 0
		st.vc = vc
		p.Injected = n.now
		l.dPacketsInjected++
		if p.Kind == flit.Request {
			n.coreSentReq[core]++
		}
	}
	if !r.HasSpace(localPort, st.vc) {
		return
	}
	f := st.flits[st.nextSeq]
	// Look-ahead route for this router.
	f.OutPort, f.NextRouter = n.wiring.lookahead(r.ID, f.Pkt.DstCore)
	r.AcceptFlit(l, localPort, st.vc, f)
	l.dFlitsInjected++
	st.nextSeq++
	if st.nextSeq == len(st.flits) {
		// Tail has entered the network: release the source router's
		// securing claim for this packet.
		l.pool.PutSlice(st.flits)
		st.flits = nil
		st.vc = -1
		l.dQueued--
		l.unsecure(r.ID)
	}
}

// --- router.Env implementation ---

// ForwardFlit wires output port outPort of r to the opposite input port of
// the neighbor, computing the look-ahead route for the next hop. With a
// nonzero link latency the flit is staged onto the wire and lands on a
// later tick (StageDueLandings, then LandPending); with zero latency it
// lands inline (the destination is within the sending shard whenever the
// sweep is concurrent — see the quiet-margin predicate in sim).
func (l *lane) ForwardFlit(r *router.Router, outPort, outVC int, f *flit.Flit) {
	n := l.n
	next := n.wiring.neighbor(r.ID, outPort)
	if next < 0 {
		panic(fmt.Sprintf("network: router %d forwarded out of edge port %d", r.ID, outPort))
	}
	inPort := int(n.wiring.opp[outPort])
	if n.linkTicks == 0 {
		l.land(next, inPort, outVC, f)
		return
	}
	l.wire = append(l.wire, transit{deliverAt: n.now + n.linkTicks, dst: next, inPort: inPort, vc: outVC, f: f})
}

// EjectFlit consumes a flit at a local port; tails complete the packet.
// Ejection is the end of a flit's life, so pool-owned flits are recycled
// here; the packet's sink callback (and its own recycling) is staged for
// the next Commit.
func (l *lane) EjectFlit(r *router.Router, localPort int, f *flit.Flit) {
	l.dFlitsDelivered++
	if !f.Tail {
		l.pool.PutFlit(f)
		return
	}
	core := r.ID*l.n.wiring.conc + localPort
	p := f.Pkt
	l.pool.PutFlit(f)
	p.Ejected = l.n.now
	l.dPacketsDelivered++
	if p.Kind == flit.Request {
		l.n.coreRecvReq[core]++
	}
	l.deliv = append(l.deliv, delivery{p: p, core: core})
}

// CreditFreed returns a credit to the upstream router; injection ports
// need none (the source queue polls HasSpace).
func (l *lane) CreditFreed(r *router.Router, inPort, vc int) {
	if r.IsLocalPort(inPort) {
		return
	}
	w := &l.n.wiring
	up := w.neighbor(r.ID, inPort)
	if up < 0 {
		panic(fmt.Sprintf("network: credit from edge port %d of router %d", inPort, r.ID))
	}
	l.n.Routers[up].Credit(int(w.opp[inPort]), vc)
}

// CanForward gates transmission on the downstream router being able to
// accept flits (active, not switching).
func (l *lane) CanForward(r *router.Router, outPort int) bool {
	next := l.n.wiring.neighbor(r.ID, outPort)
	if next < 0 {
		return false
	}
	return l.n.pv.CanAccept(next)
}

// HeadAccepted secures (and punch-wakes) the downstream router of a newly
// buffered packet.
func (l *lane) HeadAccepted(r *router.Router, f *flit.Flit) {
	if f.NextRouter >= 0 {
		l.secure(f.NextRouter)
	}
}

// TailForwarded is a router-side notification; the securing claim on the
// downstream router is released when the tail *lands* there (see land),
// so a router can never gate with a packet still on its incoming wire.
func (l *lane) TailForwarded(r *router.Router, outPort int, f *flit.Flit) {}

// FlitMoved bills a dynamic-energy hop at the moving router.
func (l *lane) FlitMoved(r *router.Router, f *flit.Flit) {
	if l.n.hop != nil {
		l.n.hop.FlitHopped(r.ID)
	}
}
