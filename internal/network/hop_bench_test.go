package network

import (
	"math/rand"
	"testing"

	"repro/internal/flit"
	"repro/internal/topology"
)

// awakePV keeps every router awake and ignores wake requests.
type awakePV struct{}

func (awakePV) CanAccept(int) bool { return true }
func (awakePV) WakeRequest(int)    {}

// hopTally counts flit-hops (forwards and ejections) network-wide.
type hopTally struct{ hops int64 }

func (h *hopTally) FlitHopped(int) { h.hops++ }

// BenchmarkNetworkHop drives a saturated 8x8 mesh — every core keeps two
// uniform-random packets queued — through the engine's per-tick step:
// CycleRouter on every router, then Commit. One op is one network tick;
// ns/flit-hop divides the wall time by the forwards and ejections it
// performed, the network layer's cost per flit movement including
// look-ahead routing, credit return and injection.
func BenchmarkNetworkHop(b *testing.B) {
	topo := topology.NewMesh(8, 8)
	hops := &hopTally{}
	n := New(topo, 2, 4, 3, awakePV{}, nil, hops)
	rng := rand.New(rand.NewSource(1))
	dsts := make([]int, 1<<12)
	for i := range dsts {
		dsts[i] = rng.Intn(topo.NumCores())
	}
	next := 0
	step := func(tick int64) {
		n.SetTick(tick)
		for c := 0; c < topo.NumCores(); c++ {
			for n.QueuedPackets(c) < 2 {
				kind := flit.Request
				if next%2 == 1 {
					kind = flit.Response
				}
				n.Inject(n.AcquirePacket(c, dsts[next%len(dsts)], kind, tick))
				next++
			}
		}
		for r := range n.Routers {
			n.CycleRouter(r, 0)
		}
		n.Commit()
	}
	// Warm up into steady-state saturation before timing.
	tick := int64(0)
	for ; tick < 2000; tick++ {
		step(tick)
	}
	hops.hops = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(tick)
		tick++
	}
	b.StopTimer()
	if hops.hops == 0 {
		b.Fatal("no flit moved: the mesh never reached saturation")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops.hops), "ns/flit-hop")
	b.ReportMetric(float64(hops.hops)/float64(b.N), "flit-hops/tick")
}
