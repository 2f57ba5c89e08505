// Struct-of-arrays slab for the per-router state. The simulation
// engine's per-tick sweep and its quiet-margin predicate touch a handful
// of fields on every router they visit — the occupancy aggregate, the
// local cycle counter, the per-port pending counts, credits and
// downstream-VC claims. With each router a separate heap object those
// reads chase one pointer per router; a Slab packs each field into one
// contiguous array indexed by router ID, so a sweep over a router range
// walks flat memory and the margin predicate reduces to scanning a slice
// window. Routers built into a slab keep their full API — every accessor
// reads and writes through a view into the shared arrays — so nothing
// above the router layer changes semantics.
package router

import "repro/internal/flit"

// Slab is the shared backing store for the state of a set of
// same-configured routers, indexed by slot (the engine uses router ID as
// the slot). Besides the hot scalars it holds the VC FIFOs and the switch
// allocator's state, so building n routers allocates a fixed number of
// planes plus the n Router objects, and no router operation allocates.
type Slab struct {
	cfg Config

	occupied   []int32 // occupied input-buffer slots per router
	localCycle []int64 // local cycle counter per router

	// Flat per-port and per-port-per-VC planes: router r's port p lives
	// at r*Ports+p, and its (p, v) entry at (r*Ports+p)*VCs+v.
	pendingToPort []int32
	credits       []int32
	outVCBusy     []bool
	vcs           []vcState
	req           []uint64 // switch-allocation request mask per output port
	saLast        []int32  // last switch-allocation winner per output port
	vcaNext       []int32  // VC-allocation rotation per output port

	// flits is the FIFO storage: input VC i owns flits[i*Depth:(i+1)*Depth].
	flits []*flit.Flit
}

// NewSlab allocates slab storage for n routers of one configuration. It
// panics on invalid configuration, like New.
func NewSlab(n int, cfg Config) *Slab {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ports, pv := n*cfg.Ports, n*cfg.Ports*cfg.VCs
	s := &Slab{
		cfg:           cfg,
		occupied:      make([]int32, n),
		localCycle:    make([]int64, n),
		pendingToPort: make([]int32, ports),
		credits:       make([]int32, pv),
		outVCBusy:     make([]bool, pv),
		vcs:           make([]vcState, pv),
		req:           make([]uint64, ports),
		saLast:        make([]int32, ports),
		vcaNext:       make([]int32, ports),
		flits:         make([]*flit.Flit, pv*cfg.Depth),
	}
	for i := range s.credits {
		s.credits[i] = int32(cfg.Depth)
	}
	d := cfg.Depth
	for i := range s.vcs {
		s.vcs[i] = vcState{q: s.flits[i*d : i*d : (i+1)*d], outVC: -1}
	}
	return s
}

// Len returns the number of router slots.
func (s *Slab) Len() int { return len(s.occupied) }

// Config returns the router configuration the slab was sized for.
func (s *Slab) Config() Config { return s.cfg }

// OccupiedSlots exposes the occupancy plane: entry i is router slot i's
// occupied input-buffer slot count, maintained by AcceptFlit/popFront
// exactly like Router.Occupied. The engine reads it for contiguous
// sweeps (IBU accumulation, the deferral predicate, quiet-margin walks);
// callers must treat it as read-only.
func (s *Slab) OccupiedSlots() []int32 { return s.occupied }

// NewInSlab builds a router whose state lives at slot of s. All routers
// sharing a slab use the slab's configuration.
func NewInSlab(id int, s *Slab, slot int) *Router {
	cfg := s.cfg
	p0, p1 := slot*cfg.Ports, (slot+1)*cfg.Ports
	v0, v1 := p0*cfg.VCs, p1*cfg.VCs
	return &Router{
		ID:            id,
		cfg:           cfg,
		in:            s.vcs[v0:v1],
		occ:           &s.occupied[slot],
		lc:            &s.localCycle[slot],
		credits:       s.credits[v0:v1],
		outVCBusy:     s.outVCBusy[v0:v1],
		pendingToPort: s.pendingToPort[p0:p1],
		req:           s.req[p0:p1],
		saLast:        s.saLast[p0:p1],
		vcaNext:       s.vcaNext[p0:p1],
	}
}
