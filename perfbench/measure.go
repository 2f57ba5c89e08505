package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/timing"
)

// metric is one named measurement as it appears in the result line.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// metrics is a metric list; when a name repeats, the last value counts.
type metrics []metric

func (m *metrics) set(name string, v float64, unit string) {
	*m = append(*m, metric{name, v, unit})
}

// One set-up takes microseconds to milliseconds, so a run repeats it and
// reports the median: setupFirst times before the first unit and
// setupEach times before every unit, which spreads the samples over the
// same stretch of host time as the units.
const (
	setupFirst = 31
	setupEach  = 5
)

// tracedPasses is how often the short workloads repeat their traced pass;
// trace.overhead_frac compares the median traced pass with the median
// untraced unit, both in unscaled wall time.
const tracedPasses = 5

// --- percentiles and medians -----------------------------------------------

// tailLadder lists the percentiles a tail latency may be reported at.
var tailLadder = []float64{50, 90, 99}

// tailPercentile returns the highest ladder percentile that leaves at least
// ten samples beyond it, so a tail figure never rests on a handful of
// outliers. With fewer than 20 samples no ladder entry qualifies and it
// returns 50: too few samples for a tail, so the tail is the median.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of xs (p in [0,100]).
// xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median returns the median of xs (mean of the middle pair for even
// lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// best returns the smallest (lower) or largest value of xs.
func best(xs []float64, lower bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	b := xs[0]
	for _, x := range xs[1:] {
		if (lower && x < b) || (!lower && x > b) {
			b = x
		}
	}
	return b
}

// unitFigures are one run's per-unit measurements. A unit is a fixed chunk
// of the workload (one job, one scripted session, one simulation); each
// rate is the median over the run's units, and the op latencies pool every
// op of every unit. Timings are wall time scaled to an undisturbed host
// over the unit's own window (see hostspeed.go).
type unitFigures struct {
	units   []unitRecord
	peakRSS float64 // MiB, once the first unit has run
}

// unitRecord is one unit as measured, before scaling.
type unitRecord struct {
	from, to    time.Time
	rows        int
	routerTicks int64
	ops         []float64 // wall seconds of each op; nil when the unit is one op
}

// add records one unit: the wall window it ran in, the result rows it
// completed, the router-ticks it simulated, and the wall time of each of
// its ops (nil when the whole unit is one op). The peak resident set is
// read after the first unit: later units repeat the same work, and what
// grows after it is the run's own sample buffers, whose size depends on
// how many units fit in the measuring time.
func (u *unitFigures) add(from, to time.Time, rows int, routerTicks int64, ops []float64) {
	if len(u.units) == 0 {
		u.peakRSS = peakRSSMB()
	}
	u.units = append(u.units, unitRecord{from, to, rows, routerTicks, ops})
}

// report stops the host-speed sampler, scales every timing to an
// undisturbed host, and sets the end-to-end metrics — setup_s the median
// of the set-ups — plus the per-layer unit, sample and host-speed figures.
func (u *unitFigures) report(res *result, setups []float64, sp *speedSampler) {
	ss := sp.finish()
	runF := scaleFactor(ss, time.Time{}, time.Now(), 1)
	var rowRates, mrt, ops []float64
	for _, r := range u.units {
		f := scaleFactor(ss, r.from, r.to, runF)
		wall := r.to.Sub(r.from).Seconds() * f
		rowRates = append(rowRates, float64(r.rows)/wall)
		mrt = append(mrt, float64(r.routerTicks)/wall/1e6)
		if r.ops == nil {
			ops = append(ops, wall)
		}
		for _, o := range r.ops {
			ops = append(ops, o*f)
		}
	}
	tail, p50 := tailPercentile(len(ops)), median(ops)
	tailV := p50
	if tail > 50 {
		tailV = percentile(ops, tail)
	}
	res.e2e.set("setup_s", median(setups)*runF, "s")
	res.e2e.set("sim_mrt_per_s", median(mrt), "Mrt/s")
	res.e2e.set("rows_per_s", median(rowRates), "rows/s")
	res.e2e.set("op_p50_us", p50*1e6, "us")
	res.e2e.set("op_tail_us", tailV*1e6, "us")
	res.e2e.set("peak_rss_mb", u.peakRSS, "MiB")
	res.layer.set("op.units", float64(len(u.units)), "count")
	res.layer.set("op.samples", float64(len(ops)), "count")
	res.layer.set("op.tail_pct", tail, "pct")
	res.layer.set("host.ref_ms", refMedian(ss)*1e3, "ms")
	res.layer.set("host.steal_frac", stealFrac(ss), "ratio")
	res.layer.set("host.ref_samples", float64(len(ss)), "count")
}

// rawWalls returns each unit's unscaled wall seconds.
func (u *unitFigures) rawWalls() []float64 {
	var out []float64
	for _, r := range u.units {
		out = append(out, r.to.Sub(r.from).Seconds())
	}
	return out
}

// repeat runs unit at least once and then again while another unit of the
// median length so far still fits in the budget, so a run measures about
// budget seconds of whole units without overshooting by a full unit.
func repeat(budget time.Duration, unit func() error) (int, error) {
	var walls []float64
	start := time.Now()
	for {
		t0 := time.Now()
		if err := unit(); err != nil {
			return len(walls), err
		}
		walls = append(walls, time.Since(t0).Seconds())
		if time.Since(start).Seconds()+median(walls) > budget.Seconds() {
			return len(walls), nil
		}
	}
}

// --- digests -----------------------------------------------------------------

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkDigest compares an output digest with its pinned value; an empty
// pinned value (a seed or size without one) always passes.
func checkDigest(what, got, pinned string) error {
	if pinned == "" || got == pinned {
		return nil
	}
	return fmt.Errorf("%s digest %s, pinned %s", what, got, pinned)
}

// --- runtime accounting ------------------------------------------------------

// memDelta snapshots the allocator counters so a timed phase can report
// what it allocated and how many GC cycles it triggered.
type memDelta struct{ alloc, gcs uint64 }

func memNow() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.TotalAlloc, uint64(ms.NumGC)}
}

// since returns the MiB allocated and GC cycles run since d, each divided
// by units (per timed unit of work).
func (d memDelta) since(units int) (allocMB, gcs float64) {
	now := memNow()
	u := float64(units)
	return float64(now.alloc-d.alloc) / (1 << 20) / u, float64(now.gcs-d.gcs) / u
}

// peakRSSMB returns the process's peak resident set (ru_maxrss) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// --- spans -------------------------------------------------------------------

// span is one traced call into a layer: name is "<layer>.<op>", times are
// nanoseconds since the recorder started, parent is the index of the
// enclosing span (-1 for a root).
type span struct {
	name       string
	start, end int64
	parent     int32
}

// recorder keeps a run's spans in memory; they are written out once the
// benchmark ends. Workers of a traced sweep record concurrently, so
// appends are serialized.
type recorder struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(run string) *recorder { return &recorder{run: run, t0: time.Now()} }

func (r *recorder) now() int64 { return time.Since(r.t0).Nanoseconds() }

// begin opens a span and returns its id for end and for children.
func (r *recorder) begin(name string, parent int32) int32 {
	t := r.now()
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, start: t, parent: parent})
	r.mu.Unlock()
	return id
}

// end closes span id and returns its duration in nanoseconds.
func (r *recorder) end(id int32) int64 {
	t := r.now()
	r.mu.Lock()
	s := &r.spans[id]
	s.end = t
	d := t - s.start
	r.mu.Unlock()
	return d
}

// add records a finished span.
func (r *recorder) add(name string, parent int32, start, end int64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, start: start, end: end, parent: parent})
	r.mu.Unlock()
}

// total returns the summed duration (ns) of every span with this name.
func (r *recorder) total(name string) int64 {
	var t int64
	for _, s := range r.spans {
		if s.name == name {
			t += s.end - s.start
		}
	}
	return t
}

// layerOf is the span name's prefix before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time in seconds: the summed span
// durations minus the part of each span's interval that its direct
// children cover. Children of one parent may overlap (the sweep's workers
// run concurrently), so coverage is the length of their union.
func (r *recorder) selfTimes() map[string]float64 {
	kids := make(map[int32][]span)
	for _, s := range r.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[string]float64)
	for i, s := range r.spans {
		out[layerOf(s.name)] += float64(s.end-s.start-covered(kids[int32(i)])) / 1e9
	}
	return out
}

// setSelfTimes reports each traced layer's self time.
func setSelfTimes(m *metrics, rec *recorder) {
	self := rec.selfTimes()
	for _, l := range []string{"sweep", "traffic", "core", "ml", "features", "sim", "cosim"} {
		m.set("self."+l+"_s", self[l], "s")
	}
}

// covered returns the length of the union of the spans' intervals.
func covered(ss []span) int64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
	var total, lo, hi int64
	for i, s := range ss {
		switch {
		case i == 0:
			lo, hi = s.start, s.end
		case s.start > hi:
			total += hi - lo
			lo, hi = s.start, s.end
		case s.end > hi:
			hi = s.end
		}
	}
	if len(ss) > 0 {
		total += hi - lo
	}
	return total
}

// write saves the spans as CSV (run, id, parent, name, start_ns, end_ns).
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "run,id,parent,name,start_ns,end_ns")
	for i, s := range r.spans {
		fmt.Fprintf(w, "%s,%d,%d,%s,%d,%d\n", r.run, i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- timing decorators -------------------------------------------------------

// callStats counts a decorator's calls and their summed duration.
type callStats struct{ calls, ns int64 }

func (c *callStats) add(o callStats) { c.calls += o.calls; c.ns += o.ns }

// perCall returns the mean nanoseconds per call (0 without calls).
func (c callStats) perCall() float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.calls)
}

// timedExtractor is a sim.FeatureExtractor that records a span around
// every Collect of the extractor it wraps. One instance serves one run.
type timedExtractor struct {
	inner  sim.FeatureExtractor
	rec    *recorder
	parent int32
	stats  callStats
}

func (t *timedExtractor) Collect(routerID int, net *network.Network, ctrl *policy.Controller, ibu float64, now timing.Tick) []float64 {
	s := t.rec.now()
	v := t.inner.Collect(routerID, net, ctrl, ibu, now)
	e := t.rec.now()
	t.rec.add("features.collect", t.parent, s, e)
	t.stats.calls++
	t.stats.ns += e - s
	return v
}

// timedPredictor is a policy.Predictor that records a span around every
// Predict of the model it wraps (the trained ml.Ridge). One instance
// serves one run.
type timedPredictor struct {
	inner  policy.Predictor
	rec    *recorder
	parent int32
	stats  callStats
}

func (t *timedPredictor) Predict(x []float64) float64 {
	s := t.rec.now()
	v := t.inner.Predict(x)
	e := t.rec.now()
	t.rec.add("ml.predict", t.parent, s, e)
	t.stats.calls++
	t.stats.ns += e - s
	return v
}

// --- simulation accounting ---------------------------------------------------

// simTally sums the engine counters of a set of result simulations.
type simTally struct {
	ticks         int64 // simulated base ticks
	routerTicks   int64 // ticks x routers
	flits         int64
	skipped       int64 // fast-forwarded + horizon-skipped ticks
	lazy          int64 // lazily caught-up router-ticks
	parallel      int64
	landings      int64
	resplits      int64
	poolHits      int64
	poolMisses    int64
	decisions     int64
	gatings       int64
	wakes         int64
	modeSwitches  int64
	injected      int64
	delivered     int64
	undrainedRuns int
}

func (t *simTally) addResult(res *sim.Result, routers int) {
	t.ticks += res.Ticks
	t.routerTicks += res.Ticks * int64(routers)
	t.flits += res.FlitsDelivered
	t.skipped += res.FastForwardedTicks + res.HorizonSkippedTicks
	t.lazy += res.LazySkippedRouterTicks
	t.parallel += res.ParallelTicks
	t.landings += res.ParallelLandings
	t.resplits += res.ShardResplits
	t.decisions += res.Policy.EpochDecisions
	t.gatings += res.Policy.Gatings
	t.wakes += res.Policy.Wakes
	t.modeSwitches += res.Policy.ModeSwitches
	t.injected += res.PacketsInjected
	t.delivered += res.PacketsDelivered
	if !res.Drained {
		t.undrainedRuns++
	}
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics renders the simulation tally as the sim and policy
// per-layer metrics; runNs is the host time spent inside the runs.
func (t *simTally) layerMetrics(m *metrics, runNs int64) {
	m.set("policy.epoch_decisions", float64(t.decisions), "count")
	m.set("policy.gatings", float64(t.gatings), "count")
	m.set("policy.wakes", float64(t.wakes), "count")
	m.set("policy.mode_switches", float64(t.modeSwitches), "count")
	m.set("sim.run_s", float64(runNs)/1e9, "s")
	m.set("sim.ns_per_router_tick", frac(runNs, t.routerTicks), "ns")
	m.set("sim.ns_per_flit", frac(runNs, t.flits), "ns")
	m.set("sim.skip_frac", frac(t.skipped, t.ticks), "ratio")
	m.set("sim.lazy_frac", frac(t.lazy, t.routerTicks), "ratio")
	m.set("sim.parallel_tick_frac", frac(t.parallel, t.ticks-t.skipped), "ratio")
	m.set("sim.parallel_landings", float64(t.landings), "count")
	m.set("sim.shard_resplits", float64(t.resplits), "count")
	m.set("sim.pool_hit_frac", frac(t.poolHits, t.poolHits+t.poolMisses), "ratio")
}

// conserved reports the invariant failures of the tally: a run that did
// not drain, or packets injected but never delivered.
func (t *simTally) conserved() []string {
	var bad []string
	if t.undrainedRuns > 0 {
		bad = append(bad, fmt.Sprintf("%d runs did not drain", t.undrainedRuns))
	}
	if t.injected != t.delivered {
		bad = append(bad, fmt.Sprintf("injected %d packets, delivered %d", t.injected, t.delivered))
	}
	return bad
}
