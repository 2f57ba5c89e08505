package network

import "repro/internal/topology"

// wiring is the fabric's flat link table set, built once by New from the
// topology and immutable afterwards. Every per-flit-hop lookup — the
// look-ahead route, the neighbour across a port, the arrival port a link
// lands on, the router a core hangs off — is an array load here instead
// of a dynamic Topology call with a division. Its size is O(routers ×
// ports), never O(routers²): XY DOR needs only each router's coordinates
// and neighbours, because the route is two coordinate compares.
//
// Cores follow the topology's numbering: router r's local port lp serves
// core r*conc+lp, so a core's local port is its offset from
// coreRouter*conc.
//
// Being read-only after New, the tables are shared by concurrent shard
// workers without synchronization. TestWiringMatchesTopology proves them
// equal to the topology package's reference functions.
type wiring struct {
	ports int // ports per router: conc local ports, then N, E, S, W
	conc  int // cores (local ports) per router

	x, y       []int32 // grid position per router
	nbr        []int32 // router across (router, port) at router*ports+port; -1 at an edge or a local port
	opp        []int32 // arrival port per output port (N<->S, E<->W); -1 for local ports
	coreRouter []int32 // router per core
}

func newWiring(t topology.Topology) wiring {
	nR, ports := t.NumRouters(), t.PortsPerRouter()
	w := wiring{
		ports:      ports,
		conc:       t.Concentration(),
		x:          make([]int32, nR),
		y:          make([]int32, nR),
		nbr:        make([]int32, nR*ports),
		opp:        make([]int32, ports),
		coreRouter: make([]int32, t.NumCores()),
	}
	for r := 0; r < nR; r++ {
		x, y := t.Coord(r)
		w.x[r], w.y[r] = int32(x), int32(y)
		for p := 0; p < ports; p++ {
			w.nbr[r*ports+p] = int32(t.Neighbor(r, p))
		}
	}
	for p := range w.opp {
		w.opp[p] = -1
		if !topology.IsLocalPort(t, p) {
			w.opp[p] = int32(topology.OppositePort(t, p))
		}
	}
	for core := range w.coreRouter {
		w.coreRouter[core] = int32(t.RouterOf(core))
	}
	return w
}

// neighbor returns the router across port of router, or -1 at a mesh
// edge or for a local port.
func (w *wiring) neighbor(router, port int) int { return int(w.nbr[router*w.ports+port]) }

// lookahead is the table form of topology.Lookahead: the output port a
// packet for dstCore takes at router, and the router it occupies next
// (-1 if it ejects there). XY DOR resolves X before Y, so the route is
// two coordinate compares and one neighbour load.
func (w *wiring) lookahead(router, dstCore int) (outPort, next int) {
	dr := int(w.coreRouter[dstCore])
	if router == dr {
		return dstCore - dr*w.conc, -1
	}
	switch cx, dx := w.x[router], w.x[dr]; {
	case dx > cx:
		outPort = w.conc + topology.East
	case dx < cx:
		outPort = w.conc + topology.West
	case w.y[dr] > w.y[router]:
		outPort = w.conc + topology.South
	default:
		outPort = w.conc + topology.North
	}
	return outPort, w.neighbor(router, outPort)
}
