package obs

import (
	"bufio"
	"fmt"
	"io"
)

// Track IDs ("tid" in the trace): the engine's own phases live on
// EngineTrack; shard i's concurrent sweep spans live on ShardTrack(i).
const EngineTrack = 0

// ShardTrack returns the trace track for shard si.
func ShardTrack(si int) int { return 1 + si }

// Tracer emits engine-phase spans in the Chrome trace_event JSON format,
// one event object per line (JSONL). Perfetto and chrome://tracing load
// the output directly — their tokenizers accept a bare stream of event
// objects, so no closing bracket is needed even if a run is cut short.
//
// Timestamps are virtual: one simulated base tick maps to one trace
// microsecond, so span widths in the viewer read as tick counts.
// Successive runs traced into one file (sweeps, experiment suites) are
// offset by BeginRun so they lay out end to end instead of overlapping.
//
// Adjacent same-named spans on a track are coalesced — a serial-sweep
// phase that holds for 10k ticks is one 10k-µs span, not 10k one-µs
// spans — which keeps files loadable for long runs. A Tracer is used by
// the engine goroutine only; shard-phase spans are emitted by the engine
// after the barrier, from its own bookkeeping, never by shard
// goroutines.
type Tracer struct {
	w   *bufio.Writer
	err error

	base    int64 // virtual-µs offset of the current run
	maxTS   int64 // high-water mark across runs (pre-offset absolute µs)
	started bool  // process metadata written

	pending []span // per-track coalescing buffer, indexed by tid

	// Retention window (retain > 0): events are buffered in ring instead
	// of streamed, and Flush writes only those whose end timestamp falls
	// within the last retain virtual µs (= base ticks) of the high-water
	// mark. Metadata lines (process/track names) are collected in
	// preamble and always written, so the output stays loadable.
	// retain <= 0 is the unbounded streaming mode.
	retain    int64
	preamble  []string
	ring      []retEvent
	ringSweep int  // buffered-event count that triggers the next sweep
	flushed   bool // retained events already written; ring restarts empty
}

// retEvent is one buffered line in retention mode, keyed by the virtual
// timestamp at which the event ends (ts for instants, ts+dur for spans):
// an old span still overlapping the window is retained.
type retEvent struct {
	end  int64
	line string
}

type span struct {
	name   string
	detail string
	start  int64 // absolute virtual µs (base applied)
	end    int64
	active bool
}

// NewTracer wraps w (typically an *os.File; the caller closes it after
// Flush). Writes are buffered. retainTicks <= 0 streams every event;
// retainTicks > 0 selects time-window retention: the tracer buffers
// events and Flush writes only those whose end timestamp falls within
// the trailing retainTicks of virtual time (1 tick = 1 µs), plus the
// metadata preamble that keeps the file loadable. This bounds both file
// size and memory for always-on tracing in long-running deployments (the
// cosim daemon): what survives is exactly the unbounded tracer's tail,
// which TestTracerWindowMatchesTail pins.
func NewTracer(w io.Writer, retainTicks int64) *Tracer {
	return &Tracer{w: bufio.NewWriterSize(w, 64<<10), retain: retainTicks}
}

// BeginRun starts a new traced run: closes any pending spans, moves the
// time base past everything already emitted, and names the process and
// the engine + shard tracks. label shows up as an instant at the run's
// origin.
func (t *Tracer) BeginRun(label string, shards int) {
	t.flushPending()
	if !t.started {
		t.started = true
		t.meta("process_name", -1, "dozznoc-sim")
	}
	// Leave a visible gap between runs.
	if t.maxTS > 0 {
		t.maxTS += 100
	}
	t.base = t.maxTS
	t.meta("thread_name", EngineTrack, "engine")
	for si := 0; si < shards; si++ {
		t.meta("thread_name", ShardTrack(si), fmt.Sprintf("shard %d", si))
	}
	t.event(t.base, `{"name":%q,"ph":"i","ts":%d,"pid":1,"tid":%d,"s":"p"}`, "run: "+label, t.base, EngineTrack)
}

// Span records a phase of dur ticks starting at tick start on track tid.
// Zero-duration spans are dropped; a span contiguous with the track's
// pending same-named span extends it instead of emitting a new event.
func (t *Tracer) Span(tid int, name, detail string, start, dur int64) {
	if dur <= 0 {
		return
	}
	for tid >= len(t.pending) {
		t.pending = append(t.pending, span{})
	}
	s, e := t.base+start, t.base+start+dur
	if e > t.maxTS {
		t.maxTS = e
	}
	p := &t.pending[tid]
	if p.active && p.name == name && p.detail == detail && p.end == s {
		p.end = e
		return
	}
	if p.active {
		t.emitSpan(tid, p)
	}
	*p = span{name: name, detail: detail, start: s, end: e, active: true}
}

// Instant records a point event at tick on track tid; n (a count, e.g.
// landings folded at a barrier) is attached as an argument when >= 0.
func (t *Tracer) Instant(tid int, name string, tick, n int64) {
	ts := t.base + tick
	if ts > t.maxTS {
		t.maxTS = ts
	}
	if n >= 0 {
		t.event(ts, `{"name":%q,"ph":"i","ts":%d,"pid":1,"tid":%d,"s":"t","args":{"n":%d}}`, name, ts, tid, n)
		return
	}
	t.event(ts, `{"name":%q,"ph":"i","ts":%d,"pid":1,"tid":%d,"s":"t"}`, name, ts, tid)
}

// Flush closes pending spans and drains the buffer; it returns the first
// write error encountered over the Tracer's lifetime. Call it before
// closing the underlying file; the Tracer remains usable (BeginRun)
// afterwards. In retention mode (retainTicks > 0) this is the emission
// point: the metadata preamble (first Flush only) and the buffered
// events still inside the trailing window are written, and the buffer
// restarts empty — events emitted after a Flush accumulate toward the
// next one.
func (t *Tracer) Flush() error {
	t.flushPending()
	if t.retain > 0 {
		if !t.flushed {
			t.flushed = true
			for _, line := range t.preamble {
				t.write(line)
			}
			t.preamble = nil
		}
		cutoff := t.maxTS - t.retain
		for _, ev := range t.ring {
			if ev.end >= cutoff {
				t.write(ev.line)
			}
		}
		t.ring = t.ring[:0]
	}
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

func (t *Tracer) flushPending() {
	for tid := range t.pending {
		if t.pending[tid].active {
			t.emitSpan(tid, &t.pending[tid])
			t.pending[tid].active = false
		}
	}
}

func (t *Tracer) emitSpan(tid int, p *span) {
	if p.detail != "" {
		t.event(p.end, `{"name":%q,"ph":"X","ts":%d,"dur":%d,"pid":1,"tid":%d,"args":{"reason":%q}}`,
			p.name, p.start, p.end-p.start, tid, p.detail)
		return
	}
	t.event(p.end, `{"name":%q,"ph":"X","ts":%d,"dur":%d,"pid":1,"tid":%d}`, p.name, p.start, p.end-p.start, tid)
}

// meta lines carry no timestamp: they stream directly in unbounded mode
// and join the always-written preamble (deduplicated — BeginRun re-emits
// track names each run) in retention mode.
func (t *Tracer) meta(kind string, tid int, name string) {
	var line string
	if tid < 0 {
		line = fmt.Sprintf(`{"name":%q,"ph":"M","pid":1,"args":{"name":%q}}`+"\n", kind, name)
	} else {
		line = fmt.Sprintf(`{"name":%q,"ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`+"\n", kind, tid, name)
	}
	if t.retain > 0 {
		for _, p := range t.preamble {
			if p == line {
				return
			}
		}
		t.preamble = append(t.preamble, line)
		return
	}
	t.write(line)
}

// event formats one timestamped line; end is the virtual µs at which the
// event stops mattering (ts for instants, ts+dur for spans), the
// retention key.
func (t *Tracer) event(end int64, format string, args ...any) {
	if t.err != nil {
		return
	}
	line := fmt.Sprintf(format+"\n", args...)
	if t.retain > 0 {
		t.ring = append(t.ring, retEvent{end: end, line: line})
		if len(t.ring) >= t.ringSweep {
			t.sweepRing()
		}
		return
	}
	t.write(line)
}

// sweepRing drops buffered events that have already fallen out of the
// window. It runs every time the buffer doubles past its post-sweep
// size, so the cost is amortized O(1) per event and memory stays
// proportional to the live window.
func (t *Tracer) sweepRing() {
	cutoff := t.maxTS - t.retain
	live := t.ring[:0]
	for _, ev := range t.ring {
		if ev.end >= cutoff {
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(t.ring); i++ {
		t.ring[i] = retEvent{} // release retained line strings
	}
	t.ring = live
	t.ringSweep = 2 * len(live)
	if t.ringSweep < minRingSweep {
		t.ringSweep = minRingSweep
	}
}

// minRingSweep is the smallest buffered-event count that triggers a
// retention sweep.
const minRingSweep = 256

func (t *Tracer) write(line string) {
	if t.err != nil {
		return
	}
	if _, err := t.w.WriteString(line); err != nil {
		t.err = err
	}
}
