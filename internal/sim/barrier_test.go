package sim

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestParkerRecheckCatchesRacingWake drives the two interleavings the
// park handshake exists for, deterministically: changed() reports what a
// worker's poll would see at that instant, and performs the engine's side
// (bump, then unpark) at the racing moment.
//   - bump-before-sleep: every poll made before sleeping is set misses a
//     bump that lands right after it, and unpark runs while sleeping is
//     still 0, so it sends nothing. Only the re-check after
//     sleeping.Store(1) can see the bump; without it the worker blocks
//     forever.
//   - unpark-wins-swap: unpark runs between sleeping.Store(1) and the
//     re-check, so it clears sleeping and sends a token; the worker must
//     consume that token, or the next park returns at once.
func TestParkerRecheckCatchesRacingWake(t *testing.T) {
	cases := []struct {
		name string
		// atSleeping picks the engine's moment: its bump+unpark runs at
		// the first poll made while sleeping equals this value.
		atSleeping uint32
	}{
		{"bump-before-sleep", 0},
		{"unpark-wins-swap", 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := parker{wake: make(chan struct{}, 1)}
			var gen atomic.Uint64
			changed := func() bool {
				asleep := p.sleeping.Load()
				if asleep == c.atSleeping && gen.Load() == 0 {
					gen.Store(1)
					p.unpark()
					if asleep == 0 {
						return false // this poll happened just before the bump
					}
				}
				if asleep == 0 && c.atSleeping == 0 {
					return false // every pre-sleep poll is stale in this case
				}
				return gen.Load() != 0
			}
			done := make(chan struct{})
			go func() {
				p.await(changed, 0)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("worker still parked after the generation changed (lost wakeup)")
			}
			if n := len(p.wake); n != 0 {
				t.Fatalf("%d stale wake token(s) left behind", n)
			}
			if p.sleeping.Load() != 0 {
				t.Fatal("worker returned with sleeping still set")
			}
		})
	}
}
