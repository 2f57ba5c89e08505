package network

import (
	"testing"

	"repro/internal/topology"
)

// TestWiringMatchesTopology is the differential proof that the flat
// wiring tables answer every lookup exactly as the topology package's
// reference functions do: the look-ahead route from every router to every
// core, the neighbour and arrival port across every (router, port), and
// every core's router and local port.
func TestWiringMatchesTopology(t *testing.T) {
	for _, topo := range []topology.Topology{
		topology.NewMesh(2, 2), topology.NewMesh(3, 5), topology.NewMesh(8, 8), topology.NewMesh(16, 32),
		topology.NewCMesh(4, 4), topology.NewCMesh(3, 2),
	} {
		n := New(topo, 2, 4, 1, newTestPV(), nil, nil)
		for r := 0; r < topo.NumRouters(); r++ {
			for dst := 0; dst < topo.NumCores(); dst++ {
				out, next := n.Lookahead(r, dst)
				wantOut, wantNext := topology.Lookahead(topo, r, dst)
				if out != wantOut || next != wantNext {
					t.Fatalf("%s: lookahead(router %d, core %d) = (%d, %d), want (%d, %d)",
						topo.Name(), r, dst, out, next, wantOut, wantNext)
				}
			}
			for p := 0; p < topo.PortsPerRouter(); p++ {
				if got, want := n.wiring.neighbor(r, p), topo.Neighbor(r, p); got != want {
					t.Fatalf("%s: neighbor(%d, %s) = %d, want %d", topo.Name(), r, topology.PortName(topo, p), got, want)
				}
			}
		}
		for p := 0; p < topo.PortsPerRouter(); p++ {
			want := -1
			if !topology.IsLocalPort(topo, p) {
				want = topology.OppositePort(topo, p)
			}
			if got := int(n.wiring.opp[p]); got != want {
				t.Fatalf("%s: opposite(%s) = %d, want %d", topo.Name(), topology.PortName(topo, p), got, want)
			}
		}
		for core := 0; core < topo.NumCores(); core++ {
			r := n.RouterOf(core)
			if r != topo.RouterOf(core) {
				t.Fatalf("%s: router of core %d = %d, want %d", topo.Name(), core, r, topo.RouterOf(core))
			}
			if lp := core - r*n.wiring.conc; topo.CoreAt(r, lp) != core || lp != topo.LocalPort(core) {
				t.Fatalf("%s: core %d is not local port %d of router %d", topo.Name(), core, lp, r)
			}
		}
	}
}
