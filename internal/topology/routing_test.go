package topology

import (
	"testing"
	"testing/quick"
)

func TestRouteArrival(t *testing.T) {
	m := NewMesh(8, 8)
	// A packet at its destination router routes to the local port.
	for core := 0; core < m.NumCores(); core += 7 {
		p := Route(m, m.RouterOf(core), core)
		if !IsLocalPort(m, p) {
			t.Fatalf("route at destination router = %s, want local", PortName(m, p))
		}
		if p != m.LocalPort(core) {
			t.Fatalf("route = port %d, want %d", p, m.LocalPort(core))
		}
	}
}

func TestRouteXFirst(t *testing.T) {
	m := NewMesh(8, 8)
	// From (0,0) to core at (3,5): X first -> East.
	src := m.RouterAt(0, 0)
	dst := m.CoreAt(m.RouterAt(3, 5), 0)
	if p := Route(m, src, dst); p != PortEast(m) {
		t.Fatalf("XY routing must move east first, got %s", PortName(m, p))
	}
	// Same column: move in Y.
	src2 := m.RouterAt(3, 0)
	if p := Route(m, src2, dst); p != PortSouth(m) {
		t.Fatalf("same column must move south, got %s", PortName(m, p))
	}
}

func TestPathProperties(t *testing.T) {
	m := NewMesh(8, 8)
	f := func(a, b uint8) bool {
		src := int(a) % m.NumCores()
		dst := int(b) % m.NumCores()
		if src == dst {
			return true
		}
		path := Path(m, src, dst)
		// Path starts at the source router, ends at the destination
		// router, and has exactly Hops+1 routers.
		if path[0] != m.RouterOf(src) || path[len(path)-1] != m.RouterOf(dst) {
			return false
		}
		if len(path) != Hops(m, src, dst)+1 {
			return false
		}
		// Consecutive routers are grid neighbors.
		for i := 1; i < len(path); i++ {
			x1, y1 := m.Coord(path[i-1])
			x2, y2 := m.Coord(path[i])
			if abs(x1-x2)+abs(y1-y2) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHopsIsManhattan(t *testing.T) {
	m := NewMesh(8, 8)
	src := m.CoreAt(m.RouterAt(1, 2), 0)
	dst := m.CoreAt(m.RouterAt(6, 7), 0)
	if got := Hops(m, src, dst); got != 10 {
		t.Fatalf("hops = %d, want 10", got)
	}
	if got := Hops(m, src, src); got != 0 {
		t.Fatalf("hops to self = %d, want 0", got)
	}
}

func TestLookaheadConsistency(t *testing.T) {
	for _, topo := range []Topology{NewMesh(8, 8), NewCMesh(4, 4)} {
		f := func(a, b uint8) bool {
			src := int(a) % topo.NumCores()
			dst := int(b) % topo.NumCores()
			r := topo.RouterOf(src)
			out, next := Lookahead(topo, r, dst)
			if out != Route(topo, r, dst) {
				return false
			}
			if IsLocalPort(topo, out) {
				return next == -1
			}
			return next == topo.Neighbor(r, out) && next == NextRouter(topo, r, dst)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
	}
}

func TestNextRouterEjects(t *testing.T) {
	m := NewMesh(8, 8)
	if NextRouter(m, m.RouterOf(10), 10) != -1 {
		t.Error("NextRouter at destination should be -1")
	}
}

// XY DOR is deadlock-free because it never turns from Y back to X; verify
// no path contains a Y->X turn.
func TestNoIllegalTurns(t *testing.T) {
	m := NewMesh(8, 8)
	for src := 0; src < m.NumCores(); src += 5 {
		for dst := 0; dst < m.NumCores(); dst += 3 {
			if src == dst {
				continue
			}
			path := Path(m, src, dst)
			movedY := false
			for i := 1; i < len(path); i++ {
				x1, _ := m.Coord(path[i-1])
				x2, _ := m.Coord(path[i])
				if x1 != x2 { // X move
					if movedY {
						t.Fatalf("path %d->%d turns from Y back to X", src, dst)
					}
				} else {
					movedY = true
				}
			}
		}
	}
}

func TestCMeshSameRouterDelivery(t *testing.T) {
	c := NewCMesh(4, 4)
	// Two cores on the same router: one-router path, local route.
	src := c.CoreAt(5, 0)
	dst := c.CoreAt(5, 3)
	if got := Hops(c, src, dst); got != 0 {
		t.Fatalf("same-router hops = %d, want 0", got)
	}
	if p := Route(c, 5, dst); p != 3 {
		t.Fatalf("route = %d, want local port 3", p)
	}
	if path := Path(c, src, dst); len(path) != 1 || path[0] != 5 {
		t.Fatalf("path = %v, want [5]", path)
	}
}
