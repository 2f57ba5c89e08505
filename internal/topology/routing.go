package topology

// XY dimension-order routing with look-ahead, as used by the paper
// (§III-A): packets first travel in X to the destination column, then in Y
// to the destination row, then eject on the destination core's local port.
// XY DOR makes the downstream router of any buffered head flit knowable one
// hop in advance, which is what enables DozzNoC's partially non-blocking
// power-gating (wake punches to downstream routers).

// Route returns the output port a packet for dstCore must take at router.
// If the packet has arrived (router == RouterOf(dstCore)) the result is the
// destination core's local port.
func Route(t Topology, router, dstCore int) int {
	dr := t.RouterOf(dstCore)
	if router == dr {
		return t.LocalPort(dstCore)
	}
	cx, cy := t.Coord(router)
	dx, dy := t.Coord(dr)
	switch {
	case dx > cx:
		return PortEast(t)
	case dx < cx:
		return PortWest(t)
	case dy > cy:
		return PortSouth(t)
	default:
		return PortNorth(t)
	}
}

// NextRouter returns the router a packet for dstCore occupies after leaving
// router, or -1 if it ejects at router.
func NextRouter(t Topology, router, dstCore int) int {
	p := Route(t, router, dstCore)
	if IsLocalPort(t, p) {
		return -1
	}
	return t.Neighbor(router, p)
}

// Lookahead computes, for a packet at router headed to dstCore, the output
// port here and the downstream router (-1 if ejecting). This is the
// look-ahead route-compute unit of the router pipeline: the downstream
// router is known one hop in advance, so it can be secured and punched
// awake before the packet leaves.
func Lookahead(t Topology, router, dstCore int) (outPort, nextRouter int) {
	outPort = Route(t, router, dstCore)
	if IsLocalPort(t, outPort) {
		return outPort, -1
	}
	return outPort, t.Neighbor(router, outPort)
}

// Path returns the ordered router sequence a packet visits from srcCore to
// dstCore, inclusive of the source and destination routers. For a core
// sending to a core on its own router the path is one router long.
func Path(t Topology, srcCore, dstCore int) []int {
	r := t.RouterOf(srcCore)
	path := []int{r}
	for r != t.RouterOf(dstCore) {
		r = NextRouter(t, r, dstCore)
		path = append(path, r)
	}
	return path
}

// Hops returns the number of router-to-router hops between two cores under
// XY DOR, i.e. the Manhattan distance between their routers.
func Hops(t Topology, srcCore, dstCore int) int {
	sx, sy := t.Coord(t.RouterOf(srcCore))
	dx, dy := t.Coord(t.RouterOf(dstCore))
	return abs(sx-dx) + abs(sy-dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
