// Event-horizon injection watermark. A closed-loop workload
// (sim.Workload) predicts its own next injection opportunity and replays
// the accounting of a skipped idle window in closed form, so the engine
// can jump over the quiet ticks in between. Replay is the trace-shaped
// reference implementation; the mcsim multicore model implements the
// same contract over its pipeline credit arithmetic.
package traffic

import (
	"math"

	"repro/internal/flit"
)

// NoPendingInjection is the sentinel NextInjectionTick returns when the
// source will never inject again (absent future deliveries). Chosen as
// MaxInt64 so callers can fold it with min() against other watermarks
// without a special case.
const NoPendingInjection = int64(math.MaxInt64)

// Replay is a Workload adapter over a sorted trace: it injects each
// entry at its stamped time and is Done when the cursor is exhausted.
// Primarily the reference watermark (just the next entry's timestamp)
// and a harness for driving the Workload code path with trace-shaped
// traffic in tests; production trace runs use the engine's native
// cursor, which shares the same closed form.
type Replay struct {
	trace   *Trace
	cursor  int
	packets int64
}

// NewReplay wraps a trace (entries must be time-sorted, as Validate
// requires) in a replay workload.
func NewReplay(tr *Trace) *Replay { return &Replay{trace: tr} }

// Tick injects every entry stamped at or before now.
func (w *Replay) Tick(now int64, inject func(p *flit.Packet)) {
	for w.cursor < len(w.trace.Entries) {
		en := w.trace.Entries[w.cursor]
		if en.Time > now {
			break
		}
		inject(flit.New(0, en.Src, en.Dst, en.Kind, now))
		w.cursor++
	}
}

// PacketDelivered counts deliveries; replay traffic is open-loop, so
// nothing stalls on them.
func (w *Replay) PacketDelivered(p *flit.Packet, core int, now int64) {
	w.packets++
}

// Done reports whether every entry has been injected.
func (w *Replay) Done() bool { return w.cursor >= len(w.trace.Entries) }

// Delivered returns the number of packets delivered back to the replay.
func (w *Replay) Delivered() int64 { return w.packets }

// NextInjectionTick returns the next entry's timestamp (clamped to now),
// or NoPendingInjection once the trace is exhausted.
func (w *Replay) NextInjectionTick(now int64) int64 {
	if w.cursor >= len(w.trace.Entries) {
		return NoPendingInjection
	}
	if t := w.trace.Entries[w.cursor].Time; t > now {
		return t
	}
	return now
}

// SkipTicks is a no-op: replay holds no per-tick accounting between
// entries.
func (w *Replay) SkipTicks(now, delta int64) {}
