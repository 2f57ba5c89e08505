package router

import (
	"math/rand"
	"testing"

	"repro/internal/flit"
)

// propEnv is a router.Env for the occupancy property test: it records
// the downstream credits each forward consumes so the test can repay
// them (and only them — Credit panics on overflow), and lets the test
// toggle downstream backpressure.
type propEnv struct {
	owed    [][2]int // (outPort, outVC) pairs consumed by forwards
	blocked map[int]bool
}

func (e *propEnv) ForwardFlit(r *Router, outPort, outVC int, f *flit.Flit) {
	e.owed = append(e.owed, [2]int{outPort, outVC})
}
func (e *propEnv) EjectFlit(r *Router, localPort int, f *flit.Flit)   {}
func (e *propEnv) CreditFreed(r *Router, inPort, vc int)              {}
func (e *propEnv) CanForward(r *Router, outPort int) bool             { return !e.blocked[outPort] }
func (e *propEnv) HeadAccepted(r *Router, f *flit.Flit)               {}
func (e *propEnv) TailForwarded(r *Router, outPort int, f *flit.Flit) {}
func (e *propEnv) FlitMoved(r *Router, f *flit.Flit)                  {}

// TestOccupancyAggregateProperty drives a router through randomized
// sequences of packet accepts, cycles (forwards and ejects), credit
// repayments and backpressure toggles, asserting after every operation
// that the incrementally-maintained occupied-slot aggregate (sampled
// O(1) by the engine's IBU accumulation) equals a slow recount of every
// input VC queue.
func TestOccupancyAggregateProperty(t *testing.T) {
	cfg := testCfg()
	kinds := []flit.Kind{flit.Request, flit.Response}
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		r := New(0, cfg)
		env := &propEnv{blocked: map[int]bool{}}
		var id uint64

		check := func(step int, op string) {
			t.Helper()
			if got, want := r.Occupied(), r.RecountOccupancy(); got != want {
				t.Fatalf("trial %d step %d (%s): aggregate %d, recount %d", trial, step, op, got, want)
			}
			if r.BuffersEmpty() != (r.Occupied() == 0) {
				t.Fatalf("trial %d step %d (%s): BuffersEmpty inconsistent with occupancy %d", trial, step, op, r.Occupied())
			}
		}

		for step := 0; step < 2000; step++ {
			op := "cycle"
			switch rng.Intn(5) {
			case 0, 1: // accept one whole packet if its VC has room
				op = "accept"
				kind := kinds[rng.Intn(len(kinds))]
				lo, hi := cfg.VCClassRange(kind)
				vc := lo + rng.Intn(hi-lo)
				inPort := rng.Intn(cfg.Ports)
				outPort := rng.Intn(cfg.Ports) // port 0 is local: an ejecting packet
				fs := flit.Flits(flit.New(id, 0, 1, kind, 0))
				id++
				if cfg.Depth-len(r.in[inPort*cfg.VCs+vc].q) < len(fs) {
					continue
				}
				for _, f := range fs {
					f.OutPort = outPort
					f.NextRouter = 9
					r.AcceptFlit(env, inPort, vc, f)
					check(step, op)
				}
				continue
			case 2: // toggle downstream backpressure on one port
				op = "block"
				p := rng.Intn(cfg.Ports)
				env.blocked[p] = !env.blocked[p]
			case 3: // repay one consumed downstream credit
				op = "credit"
				if n := len(env.owed); n > 0 {
					i := rng.Intn(n)
					c := env.owed[i]
					env.owed[i] = env.owed[n-1]
					env.owed = env.owed[:n-1]
					r.Credit(c[0], c[1])
				}
			default:
				r.Cycle(env)
			}
			check(step, op)
		}

		// Drain: release backpressure and repay everything, then cycle
		// until empty — the aggregate must land exactly on zero.
		env.blocked = map[int]bool{}
		for i := 0; i < 10*cfg.Ports*cfg.VCs*cfg.Depth; i++ {
			for _, c := range env.owed {
				r.Credit(c[0], c[1])
			}
			env.owed = env.owed[:0]
			r.Cycle(env)
			check(-1, "drain")
			if r.BuffersEmpty() {
				break
			}
		}
		if !r.BuffersEmpty() {
			t.Fatalf("trial %d: router did not drain (occupied %d)", trial, r.Occupied())
		}
	}
}
