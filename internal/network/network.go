// Package network assembles routers into a mesh/cmesh fabric: it wires
// links, performs look-ahead route computation on every forwarded flit,
// returns credits, runs per-core injection queues, and maintains the
// downstream-securing counters that drive DozzNoC's partially non-blocking
// power-gating (§III-B): a router with any upstream packet routed toward it
// is "secured" and may not power off; if it is off, it receives an
// immediate wake punch.
//
// Router cycles mutate the fabric through per-shard staging lanes (see
// lane.go): shard-shared state — the wire FIFO, delivery callbacks, the
// aggregate counters — is staged during a sweep and folded in by Commit,
// which the engine calls once per tick. Aggregate accessors (InFlight,
// Quiescent, the flit/packet counters) are therefore only current between
// Commits; per-router state (Secured, QueuedPackets, router buffers) is
// always current.
package network

import (
	"fmt"
	"math"

	"repro/internal/flit"
	"repro/internal/router"
	"repro/internal/topology"
)

// PowerView is the network's window into the power-management layer.
type PowerView interface {
	// CanAccept reports whether a router may receive flits this cycle
	// (it is in the active state and not paused for a voltage switch).
	CanAccept(routerID int) bool
	// WakeRequest asks the power manager to wake a router if it is
	// power-gated; it must be a no-op for routers already awake.
	//
	// It is also the activation funnel the engine's active-set scheduler
	// relies on: every way a router can be handed work — an injection
	// claim at an attached core, a head flit routed toward it, a wake
	// punch — calls WakeRequest before any flit can land there, so an
	// implementation that interposes here sees every lazily deferred
	// router strictly before its state can change.
	WakeRequest(routerID int)
}

// Sink observes packet deliveries.
type Sink interface {
	// PacketDelivered fires when the tail flit of p ejects at core.
	PacketDelivered(p *flit.Packet, core int, now int64)
}

// HopObserver is charged for every flit movement (dynamic energy).
type HopObserver interface {
	// FlitHopped fires when router routerID forwards or ejects a flit.
	FlitHopped(routerID int)
}

// transit is one flit in flight on an inter-router link.
type transit struct {
	deliverAt int64
	dst       int // destination router
	inPort    int
	vc        int
	f         *flit.Flit
}

// injState serializes one core's packets into its router's local port.
// The source queue is a head-indexed FIFO like the wire: the live window
// is queue[qhead:], popped slots are zeroed so delivered (pool-recycled)
// packets are not pinned by the backing array, and the window compacts
// once the dead prefix reaches the live length.
type injState struct {
	queue   []*flit.Packet
	qhead   int
	flits   []*flit.Flit // flits of the packet currently being injected
	nextSeq int
	vc      int // VC claimed for the in-flight packet, -1 if none
}

// noWireDue is the wire watermark when nothing rides a link.
const noWireDue = math.MaxInt64

// Network is the assembled fabric.
type Network struct {
	Topo    topology.Topology
	Routers []*router.Router

	// wiring holds the flat link tables every flit-hop reads (see
	// wiring.go); immutable after New.
	wiring wiring

	pv   PowerView
	sink Sink
	hop  HopObserver

	// linkTicks is the inter-router wire latency in base ticks; 0 means
	// flits arrive within the sending cycle.
	linkTicks int64
	// wire is the in-flight transit FIFO: all sends at tick t arrive at
	// t+linkTicks, so append order is delivery order. The live window is
	// wire[wireHead:len(wire)] — popping zeroes the vacated slot (so
	// recycled flits are not pinned by the backing array) and advances
	// wireHead; compactWire slides the window back to the front whenever
	// the dead prefix reaches the live length, which amortizes to O(1)
	// per transit and bounds the backing array by the peak in-flight
	// population instead of letting it grow with total traffic.
	wire     []transit
	wireHead int
	wireNext int64 // deliverAt of the wire head, noWireDue when empty

	inj     []injState
	secured []int        // securing count per router
	slab    *router.Slab // struct-of-arrays hot state shared by all routers

	// lanes holds one staging area per shard (always at least one; the
	// serial engine and standalone callers use lane 0 for everything).
	lanes []lane

	// Aggregates kept alongside the per-router/per-core state so the
	// engine can test quiescence in O(1) every tick. Staged lane deltas
	// fold in at Commit.
	queuedPackets int // packets waiting or mid-injection across all cores
	securedTotal  int // sum of securing claims across all routers

	// cumulative per-core request counters (feature inputs)
	coreSentReq []int64
	coreRecvReq []int64

	flitsDelivered   int64
	packetsDelivered int64
	flitsInjected    int64
	packetsInjected  int64

	// pool recycles the packets of trace-driven traffic (see
	// AcquirePacket); externally created packets pass through untouched.
	// Flits are recycled by the per-lane pools.
	pool flit.Pool

	now int64 // current base tick, set by the engine each tick
}

// RouterConfig is the router configuration New builds for topo: ports and
// local ports come from the topology, the rest from the arguments.
func RouterConfig(topo topology.Topology, vcs, depth, pipeline int) router.Config {
	return router.Config{
		Ports:      topo.PortsPerRouter(),
		LocalPorts: topo.Concentration(),
		VCs:        vcs,
		Depth:      depth,
		Pipeline:   pipeline,
	}
}

// New builds the fabric for a topology with the given router configuration
// template (Ports/LocalPorts are derived from the topology). Inter-router
// links deliver within the sending cycle; use SetLinkTicks for a wire
// latency.
func New(topo topology.Topology, vcs, depth, pipeline int, pv PowerView, sink Sink, hop HopObserver) *Network {
	cfg := RouterConfig(topo, vcs, depth, pipeline)
	n := &Network{
		Topo:        topo,
		wiring:      newWiring(topo),
		pv:          pv,
		sink:        sink,
		hop:         hop,
		wireNext:    noWireDue,
		inj:         make([]injState, topo.NumCores()),
		secured:     make([]int, topo.NumRouters()),
		coreSentReq: make([]int64, topo.NumCores()),
		coreRecvReq: make([]int64, topo.NumCores()),
	}
	for i := range n.inj {
		n.inj[i].vc = -1
	}
	// One struct-of-arrays slab backs the hot state of every router
	// (slot = router ID), so the engine's sweeps and margin walks read
	// contiguous arrays instead of chasing per-router pointers.
	n.slab = router.NewSlab(topo.NumRouters(), cfg)
	n.Routers = make([]*router.Router, topo.NumRouters())
	for i := range n.Routers {
		n.Routers[i] = router.NewInSlab(i, n.slab, i)
	}
	n.SetShards(1)
	return n
}

// OccupiedSlots exposes the slab's occupancy plane (entry r = router r's
// occupied input-buffer slots) for the engine's contiguous hot-path
// reads. Read-only for callers.
func (n *Network) OccupiedSlots() []int32 { return n.slab.OccupiedSlots() }

// RangeInert reports whether every router in [lo, hi) is inert — empty
// buffers and no securing claims — by scanning the slab's occupancy
// plane and the secured counts as two flat slices. It is the
// quiet-margin predicate's bulk form: the engine calls it per boundary
// margin on every candidate parallel tick, so it must not touch the
// routers themselves.
func (n *Network) RangeInert(lo, hi int) bool {
	for _, o := range n.slab.OccupiedSlots()[lo:hi] {
		if o != 0 {
			return false
		}
	}
	for _, s := range n.secured[lo:hi] {
		if s != 0 {
			return false
		}
	}
	return true
}

// SetShards sizes the staging-lane array for k concurrent shards. Call it
// before traffic flows (anything staged in the old lanes is dropped).
func (n *Network) SetShards(k int) {
	if k < 1 {
		panic(fmt.Sprintf("network: bad shard count %d", k))
	}
	n.lanes = make([]lane, k)
	for i := range n.lanes {
		n.lanes[i].n = n
		n.lanes[i].wire = make([]transit, 0, 32)
		n.lanes[i].pend = make([]transit, 0, 32)
		n.lanes[i].deliv = make([]delivery, 0, 16)
	}
}

// SetTick tells the network the current base tick (used to stamp packet
// injection/ejection times).
func (n *Network) SetTick(now int64) { n.now = now }

// SetLinkTicks sets the inter-router wire latency in base ticks. Call it
// before any traffic flows.
func (n *Network) SetLinkTicks(t int64) {
	if t < 0 {
		panic(fmt.Sprintf("network: negative link latency %d", t))
	}
	n.linkTicks = t
}

// NextWireDue returns the tick at which the earliest in-flight wire flit
// lands, or math.MaxInt64 when nothing rides a link. It makes
// StageDueLandings O(1) when nothing is due and bounds the engine's
// event horizon. Only current between Commits.
func (n *Network) NextWireDue() int64 { return n.wireNext }

// StageDueLandings removes every transit whose wire latency has elapsed
// and buckets it, in FIFO order, into the staging lane of its
// destination's shard (shardOf[dst]); LandPending then lands a bucket.
// The engine calls it once per tick before cycling routers. On a tick
// whose sweep runs concurrently each shard worker lands its own bucket
// before sweeping; otherwise the engine lands every bucket first. The
// due prefix leaves the wire here, on the engine goroutine, so
// NextWireDue is current before any worker runs. O(1) when nothing is
// due (wire watermark). Returns the number of transits staged.
func (n *Network) StageDueLandings(shardOf []uint8) int {
	if n.now < n.wireNext {
		return 0
	}
	staged := 0
	for n.wireHead < len(n.wire) && n.wire[n.wireHead].deliverAt <= n.now {
		t := n.wire[n.wireHead]
		n.wire[n.wireHead] = transit{}
		n.wireHead++
		l := &n.lanes[shardOf[t.dst]]
		l.pend = append(l.pend, t)
		staged++
	}
	n.compactWire()
	n.updateWireNext()
	return staged
}

// LandPending lands shard's staged due transits in wire-FIFO order
// through the shard's own lane, then clears the bucket. Landings are
// visible to routers immediately but to the aggregate counters only
// after the tick's Commit. Under the engine's quiet-margin predicate
// every effect of a landing — the AcceptFlit at the destination, the
// securing claim on the packet's next hop, the wake requests both raise
// — stays inside the destination's shard (DESIGN.md §5d), so distinct
// shards may land concurrently.
func (n *Network) LandPending(shard int) {
	l := &n.lanes[shard]
	for i := range l.pend {
		t := l.pend[i]
		l.pend[i] = transit{}
		l.land(t.dst, t.inPort, t.vc, t.f)
	}
	l.pend = l.pend[:0]
}

// compactWire reclaims the popped prefix of the wire FIFO once it reaches
// the live length (amortized O(1) per transit); a fully drained wire
// resets in place so the backing array is reused.
func (n *Network) compactWire() {
	if n.wireHead == 0 {
		return
	}
	if n.wireHead == len(n.wire) {
		n.wire = n.wire[:0]
		n.wireHead = 0
		return
	}
	if n.wireHead >= len(n.wire)-n.wireHead {
		m := copy(n.wire, n.wire[n.wireHead:])
		tail := n.wire[m:]
		for i := range tail {
			tail[i] = transit{}
		}
		n.wire = n.wire[:m]
		n.wireHead = 0
	}
}

// wireLen returns the number of in-flight wire transits.
func (n *Network) wireLen() int { return len(n.wire) - n.wireHead }

// updateWireNext recomputes the watermark from the wire head. The wire is
// FIFO with a constant link latency, so the head is the minimum.
func (n *Network) updateWireNext() {
	if n.wireHead == len(n.wire) {
		n.wireNext = noWireDue
	} else {
		n.wireNext = n.wire[n.wireHead].deliverAt
	}
}

// AcquirePacket builds a packet from the network's free-list pool. The
// packet (and the flits it is later serialized into) is recycled
// automatically once its tail flit is delivered, so callers must not
// retain it past the delivery callback. Packets built with flit.New are
// still accepted by Inject and are never recycled.
func (n *Network) AcquirePacket(src, dst int, kind flit.Kind, injectAt int64) *flit.Packet {
	return n.pool.GetPacket(src, dst, kind, injectAt)
}

// Inject queues a packet at its source core. The source router becomes
// secured (and is punched awake if gated) until the packet's tail flit has
// entered the network. Injection is an engine-serial operation (trace
// replay, workload ticks, sink callbacks) and updates the aggregates
// directly rather than through a lane.
func (n *Network) Inject(p *flit.Packet) {
	if p.SrcCore < 0 || p.SrcCore >= len(n.inj) {
		panic(fmt.Sprintf("network: bad source core %d", p.SrcCore))
	}
	st := &n.inj[p.SrcCore]
	st.queue = append(st.queue, p)
	n.queuedPackets++
	r := n.RouterOf(p.SrcCore)
	n.secured[r]++
	n.securedTotal++
	n.pv.WakeRequest(r)
}

// QueuedPackets returns the number of packets waiting (or mid-injection)
// at a core.
func (n *Network) QueuedPackets(core int) int {
	st := &n.inj[core]
	q := len(st.queue) - st.qhead
	if st.flits != nil {
		q++
	}
	return q
}

// InFlight reports whether any flit is buffered anywhere, riding a link,
// or queued for injection (used to detect drain completion). Flits only
// leave the network by ejection, so the injected/delivered flit counters
// differ exactly while any flit is buffered or on a wire. Only current
// between Commits.
func (n *Network) InFlight() bool {
	return n.wireLen() > 0 || n.flitsInjected != n.flitsDelivered || n.queuedPackets > 0
}

// Quiescent reports whether nothing is in motion or pending anywhere in
// the fabric: no flit buffered or riding a link, no packet queued or
// mid-injection at any core, and no securing claim held on any router.
// While this holds (and no new injection arrives), no router can receive
// a wake punch and no flit can move, so the engine may fast-forward time.
// Only current between Commits.
func (n *Network) Quiescent() bool {
	return n.wireLen() == 0 && n.flitsInjected == n.flitsDelivered &&
		n.queuedPackets == 0 && n.securedTotal == 0
}

// BufferedFlits returns the number of flits sitting in router buffers
// (injected, not yet delivered, and not currently riding a wire). Flits
// enter the injected counter when they land in the source router's input
// buffer, leave the delivered counter at ejection, and are excluded
// while in wire transit — so the difference minus the wire population is
// exactly the total router-buffer occupancy. The event-horizon path
// requires this to be zero: with every buffer empty, no router cycle can
// move a flit, so the only future events are wire arrivals, injections,
// and controller timers. Only current between Commits.
func (n *Network) BufferedFlits() int64 {
	return n.flitsInjected - n.flitsDelivered - int64(n.wireLen())
}

// HasQueued reports whether any core has a packet waiting or
// mid-injection. Only current between Commits.
func (n *Network) HasQueued() bool { return n.queuedPackets > 0 }

// QueuedAtRouter returns the number of packets waiting (or
// mid-injection) across the cores attached to one router. The horizon
// path uses it to find routers whose next local cycle would inject,
// which caps how far time may be skipped.
func (n *Network) QueuedAtRouter(routerID int) int {
	c0 := routerID * n.wiring.conc
	q := 0
	for lp := 0; lp < n.wiring.conc; lp++ {
		q += n.QueuedPackets(c0 + lp)
	}
	return q
}

// RouterOf returns the router core is attached to, from the wiring
// tables (the same answer as Topo.RouterOf, without an interface call).
func (n *Network) RouterOf(core int) int { return int(n.wiring.coreRouter[core]) }

// Lookahead is the table form of topology.Lookahead every forwarded flit
// uses: the output port a packet for dstCore takes at router, and the
// router it occupies next (-1 if it ejects at router).
func (n *Network) Lookahead(router, dstCore int) (outPort, nextRouter int) {
	return n.wiring.lookahead(router, dstCore)
}

// Secured reports whether a router currently holds securing claims.
func (n *Network) Secured(routerID int) bool { return n.secured[routerID] > 0 }

// Counters. Only current between Commits.
func (n *Network) FlitsDelivered() int64   { return n.flitsDelivered }
func (n *Network) PacketsDelivered() int64 { return n.packetsDelivered }
func (n *Network) PacketsInjected() int64  { return n.packetsInjected }

// CoreSentRequests and CoreRecvRequests return cumulative request-packet
// counters for one core (Table IV features 2 and 3 take per-epoch deltas).
func (n *Network) CoreSentRequests(core int) int64 { return n.coreSentReq[core] }
func (n *Network) CoreRecvRequests(core int) int64 { return n.coreRecvReq[core] }

// PoolStats sums free-list hits and misses across the packet pool and
// every lane's flit pool (the observability layer exposes the ratio as a
// pool hit rate). Lane pools are owner-written during concurrent sweeps,
// so call it only between Commits, like the other aggregates.
func (n *Network) PoolStats() (hits, misses int64) {
	hits, misses = n.pool.Stats()
	for i := range n.lanes {
		h, m := n.lanes[i].pool.Stats()
		hits += h
		misses += m
	}
	return hits, misses
}

// CycleRouter runs one local cycle of a router against shard's staging
// lane: injection from its attached cores, then switch allocation and
// traversal. The engine must only call it for routers whose power state
// allows operation, and — during a concurrent sweep — only from the
// goroutine that owns shard, for routers inside that shard.
func (n *Network) CycleRouter(routerID, shard int) {
	l := &n.lanes[shard]
	r := n.Routers[routerID]
	c0 := routerID * n.wiring.conc
	for lp := 0; lp < n.wiring.conc; lp++ {
		l.injectCore(r, c0+lp, lp)
	}
	r.Cycle(l)
}

// RouterCycle is the single-shard form of CycleRouter with an immediate
// Commit, preserving the historical cycle-then-observe contract for
// standalone callers (tests, tools) that inspect counters or sink state
// after each router cycle.
func (n *Network) RouterCycle(routerID int) {
	n.CycleRouter(routerID, 0)
	n.Commit()
}

// Commit folds every lane's staged effects into the shared state, in
// ascending lane order: wire appends first (lane order equals ascending
// router order, so the merged FIFO matches what a serial sweep would have
// appended), then counter deltas, then delivery callbacks in the same
// order the serial sweep would have fired them. The engine calls it once
// per tick after the sweep; it must run single-threaded.
func (n *Network) Commit() {
	for i := range n.lanes {
		l := &n.lanes[i]
		if len(l.wire) > 0 {
			n.wire = append(n.wire, l.wire...)
			for j := range l.wire {
				l.wire[j].f = nil
			}
			l.wire = l.wire[:0]
		}
		n.flitsInjected += l.dFlitsInjected
		n.flitsDelivered += l.dFlitsDelivered
		n.packetsInjected += l.dPacketsInjected
		n.packetsDelivered += l.dPacketsDelivered
		n.queuedPackets += l.dQueued
		n.securedTotal += l.dSecured
		l.dFlitsInjected, l.dFlitsDelivered = 0, 0
		l.dPacketsInjected, l.dPacketsDelivered = 0, 0
		l.dQueued, l.dSecured = 0, 0
	}
	n.updateWireNext()
	for i := range n.lanes {
		l := &n.lanes[i]
		for j := range l.deliv {
			d := l.deliv[j]
			if n.sink != nil {
				n.sink.PacketDelivered(d.p, d.core, n.now)
			}
			n.pool.PutPacket(d.p)
			l.deliv[j] = delivery{}
		}
		l.deliv = l.deliv[:0]
	}
}

// pickInjVC chooses an injection VC with space within the kind's class.
func (n *Network) pickInjVC(r *router.Router, localPort int, k flit.Kind) (int, bool) {
	lo, hi := r.Config().VCClassRange(k)
	for v := lo; v < hi; v++ {
		if r.HasSpace(localPort, v) {
			return v, true
		}
	}
	return 0, false
}
