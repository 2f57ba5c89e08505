// The claim-based tick barrier (DESIGN.md §5c): how a concurrent tick's
// per-shard land+sweep work is handed to the shard workers and joined.
//
// The engine publishes a tick by writing parTick, resetting every worker
// shard's claimed flag and bumping the generation counter. Idle workers
// poll the counter for a bounded time before parking, so on a hot run
// they pick the tick up within nanoseconds. Nobody waits for a worker to
// arrive, though: a shard's land+sweep runs on whichever goroutine wins
// the CAS on its claimed flag, and the engine — after sweeping shard 0 —
// claims every shard no worker has taken yet. A late or parked worker
// therefore costs at most the serial sweep; only shards that were
// actually claimed are waited for, by spinning on the busy count.
package sim

import (
	"runtime"
	"sync/atomic"
	"time"
)

// workerSpin bounds how long an idle shard worker polls the tick
// generation before parking. It covers the serial stretch between two
// concurrent ticks (commit, landing staging, injections), so a worker on
// a busy run never parks, while one on an idle session stops burning a
// CPU soon after the last concurrent tick.
const workerSpin = 50 * time.Microsecond

// spinYield is how many polls a spinning goroutine makes between
// runtime.Gosched calls, so a spinner never starves the goroutine it is
// waiting for when both share one processor.
const spinYield = 64

// tickBarrier is the engine-wide half of the claim barrier, padded onto
// its own cache lines: workers poll gen while the engine goroutine writes
// the neighbouring engine fields every tick.
type tickBarrier struct {
	_ [64]byte
	// gen is bumped once per concurrent tick and once at shutdown.
	gen atomic.Uint64
	// busy counts worker shards whose land+sweep has not finished this
	// tick; the engine spins until it reaches zero.
	busy atomic.Int32
	// stopping asks the workers to exit at their next generation change.
	stopping atomic.Bool
	// parTick is the tick being swept concurrently. Written before the
	// claimed resets and read only by the goroutine that wins a claim,
	// so the CAS orders it.
	parTick int64
	_       [64]byte
}

// parker is one worker's half of the wake handshake: a worker that has
// polled long enough announces it is going to sleep and blocks on wake;
// the engine, after making the worker's wait condition true, hands a
// token to every worker it finds asleep.
type parker struct {
	sleeping atomic.Uint32
	wake     chan struct{} // capacity 1: unpark never blocks
}

// await returns once changed reports true. It polls for up to spin, then
// parks until unpark.
func (p *parker) await(changed func() bool, spin time.Duration) {
	deadline := time.Now().Add(spin)
	for i := 1; !changed(); i++ {
		if i%spinYield == 0 {
			if time.Now().After(deadline) {
				p.park(changed)
				return
			}
			runtime.Gosched()
		}
	}
}

// park blocks until unpark hands over a token, without losing a wakeup:
// the condition is re-checked after sleeping is set, so a change that
// unpark published before it could see sleeping = 1 is caught here. If
// both sides race to clear sleeping, the loser of the Swap owes the other
// nothing but the token in flight, which park consumes.
func (p *parker) park(changed func() bool) {
	p.sleeping.Store(1)
	if changed() {
		if p.sleeping.Swap(0) == 1 {
			return
		}
		// unpark saw sleeping = 1 first and is sending a token.
	}
	<-p.wake
}

// unpark wakes the worker if it is asleep or about to sleep. The caller
// must make the worker's changed condition true first.
func (p *parker) unpark() {
	if p.sleeping.Swap(0) == 1 {
		p.wake <- struct{}{}
	}
}

// startWorkers spawns one worker goroutine per shard beyond the first;
// shard 0 always runs on the engine goroutine. Workers are started
// lazily at the first concurrent tick so serial runs never pay for them.
func (e *engine) startWorkers() {
	seen := e.bar.gen.Load()
	for si := 1; si < len(e.shards); si++ {
		e.shards[si].park.wake = make(chan struct{}, 1)
		e.exited.Add(1)
		go e.worker(si, seen)
	}
	e.workersUp = true
}

// stopWorkers tells every worker to exit and waits until they have, so
// no goroutine outlives the run.
func (e *engine) stopWorkers() {
	if !e.workersUp {
		return
	}
	e.bar.stopping.Store(true)
	e.bar.gen.Add(1)
	for si := 1; si < len(e.shards); si++ {
		e.shards[si].park.unpark()
	}
	e.exited.Wait()
	e.workersUp = false
}

// worker is shard si's goroutine: wait for a new generation, then try to
// claim its own shard first and the other worker shards after it.
func (e *engine) worker(si int, seen uint64) {
	defer e.exited.Done()
	p := &e.shards[si].park
	changed := func() bool { return e.bar.gen.Load() != seen }
	for {
		p.await(changed, workerSpin)
		seen = e.bar.gen.Load()
		if e.bar.stopping.Load() {
			return
		}
		e.claimShards(si)
	}
}

// claimShards runs the land+sweep of every worker shard whose claim it
// wins, trying first, then the following worker shards, wrapping round
// 1..k-1. Landing before sweeping needs no cross-shard barrier: a
// landing's whole effect set is destination-shard-local under the
// quiet-margin predicate (DESIGN.md §5d), so shard A may sweep while
// shard B still lands.
func (e *engine) claimShards(first int) {
	n := len(e.shards) - 1
	for j := 0; j < n; j++ {
		si := 1 + (first-1+j)%n
		if !e.shards[si].claimed.CompareAndSwap(0, 1) {
			continue
		}
		e.net.LandPending(si)
		e.sweepShard(si, e.bar.parTick)
		e.bar.busy.Add(-1)
	}
}

// sweepConcurrent lands and sweeps one tick across every shard under the
// claim barrier. The due landings must already be staged by destination
// shard. On return every shard is swept and no worker touches shard state
// until the next call, so the engine goroutine owns everything again.
func (e *engine) sweepConcurrent(tick int64) {
	if !e.workersUp {
		e.startWorkers()
	}
	e.bar.parTick = tick
	e.bar.busy.Store(int32(len(e.shards) - 1))
	for si := 1; si < len(e.shards); si++ {
		e.shards[si].claimed.Store(0)
	}
	e.bar.gen.Add(1)
	for si := 1; si < len(e.shards); si++ {
		e.shards[si].park.unpark()
	}
	e.net.LandPending(0)
	e.sweepShard(0, tick)
	e.claimShards(1)
	for i := 1; e.bar.busy.Load() != 0; i++ {
		if i%spinYield == 0 {
			runtime.Gosched()
		}
	}
}
