package sim_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
)

// withDeadline runs fn on its own goroutine and fails the test if it has
// not returned within d: a lost wakeup or an unbalanced claim count
// shows up as an engine spinning or blocking forever, not as a wrong
// Result.
func withDeadline(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s stalled for %v: lost wakeup or unbalanced claim", what, d)
	}
}

// goroutinesBackTo waits up to a second for the goroutine count to fall
// back to baseline and returns the last count seen. Helper goroutines
// need a moment to exit after signalling; a leaked shard worker never
// does.
func goroutinesBackTo(baseline int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n != baseline && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestClaimBarrierStress drives the claim barrier (DESIGN.md §5c) through
// both of its worker paths in one run: Advance windows separated by
// sleeps much longer than the worker spin, so every worker parks and the
// next concurrent tick must unpark it, interleaved with back-to-back
// windows where the workers are still polling. Forced Shards 2 and 4 at
// GOMAXPROCS 1 and 2 cover workers that never overlap the engine and
// workers that race it for claims. The closed Session must be DeepEqual
// to the serial Run, concurrent sweeps must have engaged, and once the
// session is closed (and after a sharded Run) the goroutine count must
// return to its baseline: no shard worker outlives its engine.
func TestClaimBarrierStress(t *testing.T) {
	topo := topology.NewMesh(8, 16)
	tr := bandedTrace(topo, 12_000)
	const window = 250
	base := func(shards int) sim.Config {
		return sim.Config{
			Topo:           topo,
			Spec:           policy.DozzNoC(policy.ReactiveSelector{}),
			Shards:         shards,
			ShardMinActive: -1,
		}
	}
	cfg := base(1)
	cfg.Trace = tr
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	zeroSchedulingDiagnostics(want)
	want.Trace = ""

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		for _, shards := range []int{2, 4} {
			name := fmt.Sprintf("procs=%d/shards=%d", procs, shards)
			runtime.GOMAXPROCS(procs)
			baseline := runtime.NumGoroutine()

			sess, err := sim.NewSession(base(shards))
			if err != nil {
				t.Fatal(err)
			}
			for _, en := range tr.Entries {
				if err := sess.Schedule(en.Time, en.Src, en.Dst, en.Kind); err != nil {
					t.Fatalf("%s: schedule: %v", name, err)
				}
			}
			var got *sim.Result
			withDeadline(t, time.Minute, name, func() {
				for i := 0; sess.Now() < tr.Horizon; i++ {
					if i%4 < 2 {
						// Park path: 1 ms is twenty worker spins.
						time.Sleep(time.Millisecond)
					}
					if _, err := sess.Advance(window); err != nil {
						t.Errorf("%s: advance: %v", name, err)
						return
					}
				}
				if _, err := sess.Drain(1 << 20); err != nil {
					t.Errorf("%s: drain: %v", name, err)
				}
				got = sess.Close()
			})
			if got == nil {
				t.Fatalf("%s: session did not finish", name)
			}
			if n := goroutinesBackTo(baseline); n != baseline {
				t.Fatalf("%s: %d goroutines after Close, %d before the session: a shard worker leaked", name, n, baseline)
			}
			if got.ParallelTicks == 0 {
				t.Fatalf("%s: no concurrent sweep engaged", name)
			}
			zeroSchedulingDiagnostics(got)
			// The run label is metadata: a session has no trace name.
			got.Trace = ""
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: session result diverges from the serial run", name)
			}

			rc := base(shards)
			rc.Trace = tr
			var res *sim.Result
			withDeadline(t, time.Minute, name+" run", func() {
				res, err = sim.Run(rc)
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := goroutinesBackTo(baseline); n != baseline {
				t.Fatalf("%s: %d goroutines after Run, %d before: a shard worker leaked", name, n, baseline)
			}
			zeroSchedulingDiagnostics(res)
			res.Trace = ""
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("%s: sharded Run diverges from the serial run", name)
			}
		}
	}
}
