package topology_test

import (
	"fmt"

	"repro/internal/topology"
)

// XY dimension-order routing resolves the X offset before the Y offset,
// which makes the downstream router of every packet knowable in advance.
func ExamplePath() {
	m := topology.NewMesh(8, 8)
	src := m.CoreAt(m.RouterAt(1, 1), 0)
	dst := m.CoreAt(m.RouterAt(3, 2), 0)
	for _, r := range topology.Path(m, src, dst) {
		x, y := m.Coord(r)
		fmt.Printf("(%d,%d) ", x, y)
	}
	fmt.Println()
	// Output:
	// (1,1) (2,1) (3,1) (3,2)
}

// Look-ahead routing names both the output port at this router and the
// router the packet occupies next, so the next router can be woken early.
func ExampleLookahead() {
	m := topology.NewMesh(8, 8)
	dst := m.CoreAt(m.RouterAt(3, 2), 0)
	for _, at := range [][2]int{{1, 1}, {3, 1}, {3, 2}} {
		out, next := topology.Lookahead(m, m.RouterAt(at[0], at[1]), dst)
		fmt.Printf("at (%d,%d): out %s, next %d\n", at[0], at[1], topology.PortName(m, out), next)
	}
	// Output:
	// at (1,1): out E, next 10
	// at (3,1): out S, next 19
	// at (3,2): out L0, next -1
}

// The cmesh attaches four cores per router, so 64 cores need 16 routers.
func ExampleNewCMesh() {
	c := topology.NewCMesh(4, 4)
	fmt.Printf("%s: %d routers, %d cores, %d ports/router\n",
		c.Name(), c.NumRouters(), c.NumCores(), c.PortsPerRouter())
	// Output:
	// cmesh4x4: 16 routers, 64 cores, 8 ports/router
}
