// Load-aware shard tiling (DESIGN.md §5g): the partition starts as an
// even row-band split and its boundaries migrate toward the observed
// load at epoch folds. Per-row work counters (stepped router-ticks,
// owner-only writes since a row belongs to exactly one shard) are
// prefix-summed into balanced cuts, each cut snapped to the nearest row
// whose quiet margin carries no recent work — a cut through a busy band
// would fail the isolation predicate every tick and pin the engine to
// the serial fallback. Re-splits run on the engine goroutine while no
// worker holds a claim and every router is caught up, and touch only
// scheduling state (shard ranges, bitsets, arm heaps, stats/metrics lane
// maps), so results are bit-identical to any other partition by the same
// argument that makes them identical to Shards=1.
package sim

import "repro/internal/obs"

// layoutShards (re)derives every partition-dependent structure from
// cuts, where cuts[i] is the first mesh row of shard i (cuts[0] = 0):
// shard router ranges and active bitsets, the shardOf ownership map used
// to bucket wire landings, the staging-lane starts, and the boundary
// margins checked by the isolation predicate. Counters that accumulate
// across partitions (swept, lazyTicks) and the barrier state are left
// alone, so it is safe both at engine construction and at a re-split.
func (e *engine) layoutShards(cuts []int) {
	copy(e.cuts, cuts)
	k := len(e.shards)
	for si := 0; si < k; si++ {
		s := &e.shards[si]
		s.lo = cuts[si] * e.width
		if si+1 < k {
			s.hi = cuts[si+1] * e.width
		} else {
			s.hi = e.rows * e.width
		}
		nw := (s.hi - s.lo + 63) / 64
		if nw <= cap(s.active) {
			s.active = s.active[:nw]
			for i := range s.active {
				s.active[i] = 0
			}
		} else {
			s.active = make([]uint64, nw)
		}
		s.loopPos = s.lo
		e.laneStarts[si] = s.lo
		for r := s.lo; r < s.hi; r++ {
			e.shardOf[r] = uint8(si)
		}
	}
	e.margins = e.margins[:0]
	for si := 1; si < k; si++ {
		f := cuts[si]
		r0, r1 := f-2, f+2
		if r0 < 0 {
			r0 = 0
		}
		if r1 > e.rows {
			r1 = e.rows
		}
		e.margins = append(e.margins, span{r0 * e.width, r1 * e.width})
	}
}

// maybeResplit runs at the post-barrier epoch fold: if the decayed
// per-row work histogram wants different cuts than the current ones, the
// partition is re-laid while no worker holds a claim. The caller must
// follow with refreshActive, which rebuilds membership and re-arms every
// idle-gating router into its new owner's heap.
func (e *engine) maybeResplit(from int64) {
	var total int64
	for _, w := range e.rowWork {
		total += w
	}
	if total > 0 {
		cuts := e.balancedCuts(total)
		for i := range cuts {
			if cuts[i] != e.cuts[i] {
				e.applyResplit(cuts)
				if e.tr != nil {
					e.tr.Instant(obs.EngineTrack, "resplit", from, e.resplits)
				}
				break
			}
		}
	}
	// Exponential decay: halving each fold makes the balance track
	// recent phases instead of the run's whole history.
	for i := range e.rowWork {
		e.rowWork[i] >>= 1
	}
}

// marginWork sums the recent work of the margin rows a cut at row f
// would have to prove inert (rows f-2 .. f+1). Zero means the isolation
// predicate has a chance of passing there on quiet ticks.
func (e *engine) marginWork(f int) int64 {
	lo, hi := f-2, f+2
	if lo < 0 {
		lo = 0
	}
	if hi > e.rows {
		hi = e.rows
	}
	var w int64
	for _, v := range e.rowWork[lo:hi] {
		w += v
	}
	return w
}

// balancedCuts computes the load-balanced partition: cut i lands where
// the work prefix sum crosses i/k of the total, then snaps outward to
// the nearest legal row whose margin is quiet (falling back to the
// least-loaded margin when no quiet row exists — no worse than a fixed
// cut through the same traffic). Cuts are strictly increasing and leave
// every shard at least one row.
func (e *engine) balancedCuts(total int64) []int {
	k := len(e.shards)
	cuts := make([]int, k)
	var prefix int64
	row := 0
	for i := 1; i < k; i++ {
		target := total * int64(i) / int64(k)
		for row < e.rows && prefix < target {
			prefix += e.rowWork[row]
			row++
		}
		lo, hi := cuts[i-1]+1, e.rows-(k-i)
		cand := row
		if cand < lo {
			cand = lo
		}
		if cand > hi {
			cand = hi
		}
		best, bestW := cand, e.marginWork(cand)
		for d := 1; bestW != 0 && d <= e.rows; d++ {
			for _, f := range [2]int{cand + d, cand - d} {
				if f < lo || f > hi {
					continue
				}
				if w := e.marginWork(f); w < bestW {
					best, bestW = f, w
				}
			}
		}
		cuts[i] = best
	}
	return cuts
}

// applyResplit installs a new partition. Preconditions: the engine is at
// a post-barrier epoch fold (no worker holds a claim, every router caught
// up, all staging lanes drained by Commit), so the engine goroutine owns
// every shard. The arm heaps key routers by owning shard, so they are
// dropped wholesale and every armTick reset; the caller's refreshActive re-arms
// each idle-gating router into its new owner's heap at the same absolute
// tick (TicksToNextEvent is deterministic and the router's clock phase
// is caught up), so no scheduled gating event is lost. armTick must be
// reset before re-arming — arm() dedups on it and would otherwise skip
// the heap push for a router armed at an unchanged tick.
func (e *engine) applyResplit(cuts []int) {
	for si := range e.shards {
		s := &e.shards[si]
		s.armT, s.armR = s.armT[:0], s.armR[:0]
	}
	for r := range e.armTick {
		e.armTick[r] = -1
	}
	e.layoutShards(cuts)
	// The staging-lane count is unchanged and the lanes are empty
	// between ticks, so the network needs no re-split — only the
	// router->lane attribution maps move. RelaneStats/Retile remap
	// without resetting counters: both report lane sums, which are
	// invariant under where a router's events landed.
	e.ctrl.RelaneStats(e.laneStarts)
	if e.obsM != nil {
		e.obsM.Retile(e.laneStarts)
	}
	e.resplits++
}

// shardLoads snapshots the per-shard swept-router-tick counters into the
// engine's scratch buffer (valid until the next call).
func (e *engine) shardLoads() []int64 {
	for si := range e.shards {
		e.shardLoadBuf[si] = e.shards[si].swept
	}
	return e.shardLoadBuf
}

// loadImbalance is max/mean of the per-shard loads: 1.0 is perfectly
// balanced, len(loads) is everything on one worker, 0 an idle run.
func loadImbalance(loads []int64) float64 {
	var sum, max int64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(loads)) / float64(sum)
}
