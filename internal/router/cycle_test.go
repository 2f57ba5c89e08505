package router

import (
	"testing"

	"repro/internal/flit"
)

// loopEnv is a non-allocating Env that returns every forwarded flit's
// credit at once and counts moved flits.
type loopEnv struct {
	r     *Router
	moved int
}

func (e *loopEnv) ForwardFlit(r *Router, outPort, outVC int, f *flit.Flit) {
	e.r.Credit(outPort, outVC)
}
func (e *loopEnv) EjectFlit(*Router, int, *flit.Flit)     {}
func (e *loopEnv) CreditFreed(*Router, int, int)          {}
func (e *loopEnv) CanForward(*Router, int) bool           { return true }
func (e *loopEnv) HeadAccepted(*Router, *flit.Flit)       {}
func (e *loopEnv) TailForwarded(*Router, int, *flit.Flit) {}
func (e *loopEnv) FlitMoved(*Router, *flit.Flit)          { e.moved++ }

// TestSteadyStateForwardDoesNotAllocate pins that VC FIFOs never allocate:
// a five-flit packet streams through a depth-4 VC, draining it completely
// every iteration, and neither AcceptFlit nor Cycle allocates.
func TestSteadyStateForwardDoesNotAllocate(t *testing.T) {
	r := New(0, testCfg())
	env := &loopEnv{r: r}
	fs := mkFlit(1, flit.Response, 2)
	step := func() {
		for _, f := range fs[:4] {
			r.AcceptFlit(env, 1, 1, f)
		}
		r.Cycle(env)
		r.AcceptFlit(env, 1, 1, fs[4])
		for i := 0; i < 4; i++ {
			r.Cycle(env)
		}
	}
	step() // warm up
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("steady-state accept/forward loop allocates %.1f times per packet", allocs)
	}
	if want := 5 * 1002; env.moved != want || !r.BuffersEmpty() {
		t.Fatalf("moved %d flits (want %d), buffers empty = %v", env.moved, want, r.BuffersEmpty())
	}
}

// satEnv keeps a router saturated: every input VC replays a fixed ring of
// packets, refilled to full depth before each cycle, and credits come back
// the moment a flit leaves.
type satEnv struct {
	loopEnv
	rings [][]*flit.Flit // per input VC: whole packets, replayed in order
	next  []int          // per input VC: ring position of the next arrival
}

func newSatEnv(r *Router, seed uint64) *satEnv {
	cfg := r.Config()
	e := &satEnv{loopEnv: loopEnv{r: r}}
	x := seed
	for i := 0; i < cfg.Ports*cfg.VCs; i++ {
		kind := flit.Request
		if lo, _ := cfg.VCClassRange(flit.Response); i%cfg.VCs >= lo {
			kind = flit.Response
		}
		var ring []*flit.Flit
		for k := 0; k < 16; k++ {
			x = x*6364136223846793005 + 1442695040888963407 // LCG
			fs := flit.Flits(flit.New(uint64(i*16+k), 0, 1, kind, 0))
			for _, f := range fs {
				f.OutPort = int(x>>33) % cfg.Ports
			}
			ring = append(ring, fs...)
		}
		e.rings = append(e.rings, ring)
	}
	e.next = make([]int, len(e.rings))
	return e
}

// refill tops every input VC up to full depth. A ring holds more flits
// than a VC, so a flit is reused only after it has left the router.
func (e *satEnv) refill() {
	vcs := e.r.Config().VCs
	for i, ring := range e.rings {
		for e.r.HasSpace(i/vcs, i%vcs) {
			e.r.AcceptFlit(e, i/vcs, i%vcs, ring[e.next[i]])
			e.next[i] = (e.next[i] + 1) % len(ring)
		}
	}
}

// BenchmarkRouterCycle times one router step — refilling the input VCs,
// then one Cycle — on a saturated mesh router (5 ports) and a saturated
// cmesh router (8 ports), both 2 VCs x depth 4 with a 3-cycle pipeline.
func BenchmarkRouterCycle(b *testing.B) {
	for _, bc := range []struct {
		name  string
		local int
	}{{"mesh", 1}, {"cmesh", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			r := New(0, Config{Ports: bc.local + 4, LocalPorts: bc.local, VCs: 2, Depth: 4, Pipeline: 3})
			env := newSatEnv(r, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.refill()
				r.Cycle(env)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/router-cycle")
			b.ReportMetric(float64(env.moved)/float64(b.N), "flits/router-cycle")
		})
	}
}
