package main

// cosim-bursty: one client drives the co-simulation daemon in a closed
// loop over an in-memory pipe. It opens one 8x8 dozznoc session with the
// default open-session fields and sends a seeded op stream in phases of
// 50 one-epoch advances; one phase in four is active, with 8 transfers of
// 64-256 B before each advance. It exercises the service path — frame
// decode and encode, Session.Schedule, the Snapshot the daemon takes
// after every op, and the event horizon over idle windows — with no
// training, no sweep I/O and almost no sharded ticks.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/cosim"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
)

const (
	cosimGroups     = 10  // groups of four phases in one script
	cosimPhase      = 50  // advances per phase
	cosimEpochTicks = 500 // ticks per advance: one DVFS epoch
	cosimBurst      = 8   // transfers before each advance of an active phase
	cosimSession    = "s1"
)

// cosimOp is one scripted request after open-session.
type cosimOp struct {
	advance  bool
	src, dst int
	bytes    int64
}

// cosimScript generates the op stream. In each group of four phases one of
// the first three is active, so every script ends on an idle phase that
// lets the network drain before close-session.
func cosimScript(seed int64, groups, cores int) []cosimOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []cosimOp
	for g := 0; g < groups; g++ {
		active := rng.Intn(3)
		for ph := 0; ph < 4; ph++ {
			for a := 0; a < cosimPhase; a++ {
				for t := 0; ph == active && t < cosimBurst; t++ {
					src := rng.Intn(cores)
					dst := rng.Intn(cores - 1)
					if dst >= src {
						dst++
					}
					ops = append(ops, cosimOp{src: src, dst: dst, bytes: 64 + rng.Int63n(193)})
				}
				ops = append(ops, cosimOp{advance: true})
			}
		}
	}
	return ops
}

// cosimFrames encodes the script as request frames: open-session, the
// ops, close-session. Request ids count from 1.
func cosimFrames(ops []cosimOp) ([][]byte, error) {
	reqs := []cosim.Request{{V: cosim.Version, ID: 1, Op: cosim.OpOpenSession, Width: 8, Height: 8, Model: "dozznoc"}}
	ticks := int64(cosimEpochTicks)
	for i, op := range ops {
		r := cosim.Request{V: cosim.Version, ID: int64(i + 2), Session: cosimSession}
		if op.advance {
			r.Op, r.Ticks = cosim.OpAdvance, &ticks
		} else {
			op := op
			r.Op, r.Src, r.Dst, r.Bytes = cosim.OpTransfer, &op.src, &op.dst, &op.bytes
		}
		reqs = append(reqs, r)
	}
	reqs = append(reqs, cosim.Request{V: cosim.Version, ID: int64(len(ops) + 2), Op: cosim.OpCloseSession, Session: cosimSession})
	frames := make([][]byte, len(reqs))
	for i := range reqs {
		b, err := json.Marshal(&reqs[i])
		if err != nil {
			return nil, err
		}
		frames[i] = append(b, '\n')
	}
	return frames, nil
}

// cosimRig is one daemon serving one client connection over io.Pipe.
type cosimRig struct {
	d    *cosim.Daemon
	w    *io.PipeWriter
	r    *bufio.Reader
	done chan error
}

func startRig() *cosimRig {
	d := cosim.NewDaemon(cosim.Options{})
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	g := &cosimRig{d: d, w: reqW, r: bufio.NewReaderSize(respR, 64<<10), done: make(chan error, 1)}
	go func() {
		err := d.ServeConn(reqR, respW)
		respW.Close()
		g.done <- err
	}()
	return g
}

// call sends one frame and returns the reply line and its decoded form.
func (g *cosimRig) call(frame []byte) ([]byte, *cosim.Response, error) {
	if _, err := g.w.Write(frame); err != nil {
		return nil, nil, err
	}
	line, err := g.r.ReadBytes('\n')
	if err != nil {
		return nil, nil, err
	}
	var resp cosim.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return nil, nil, err
	}
	return line, &resp, nil
}

// stop ends the connection and waits for the daemon to finish serving it.
func (g *cosimRig) stop() error {
	g.w.Close()
	err := <-g.done
	g.d.Close()
	return err
}

// cosimPass is one script run through the daemon.
type cosimPass struct {
	start, end time.Time // the scripted ops' wall window
	rt         []float64 // per scripted op round trip, wall seconds
	digest     string    // of the whole reply stream
	replies    [][]byte  // reply lines (kept when asked)
	failed     int
	problems   []string
	advanced   int64
}

// runCosimPass drives one fresh daemon through the script. With rec set
// it records a span per op.
func runCosimPass(frames [][]byte, ops []cosimOp, wantPackets int64, keep bool, rec *recorder) (*cosimPass, error) {
	out := &cosimPass{rt: make([]float64, len(ops))}
	bad := func(format string, args ...any) {
		out.failed++
		out.problems = append(out.problems, fmt.Sprintf(format, args...))
	}
	h := sha256.New()
	record := func(line []byte, resp *cosim.Response, id int64) {
		h.Write(line)
		if keep {
			out.replies = append(out.replies, line)
		}
		if !resp.OK || resp.ID != id {
			bad("reply to request %d: ok=%v id=%d code=%q %s", id, resp.OK, resp.ID, resp.Code, resp.Err)
		}
	}
	g := startRig()
	line, resp, err := g.call(frames[0])
	if err != nil {
		g.stop()
		return nil, err
	}
	record(line, resp, 1)
	if resp.Session != cosimSession {
		bad("open-session returned session %q, want %q", resp.Session, cosimSession)
	}

	root := int32(-1)
	if rec != nil {
		root = rec.begin("cosim.script", -1)
	}
	out.start = time.Now()
	for i := range ops {
		var sp int32
		if rec != nil {
			sp = rec.begin("cosim.op", root)
		}
		t := time.Now()
		line, resp, err := g.call(frames[i+1])
		out.rt[i] = time.Since(t).Seconds()
		if rec != nil {
			rec.end(sp)
		}
		if err != nil {
			g.stop()
			return nil, err
		}
		record(line, resp, int64(i+2))
		out.advanced += resp.Advanced
	}
	out.end = time.Now()
	if rec != nil {
		rec.end(root)
	}

	line, resp, err = g.call(frames[len(frames)-1])
	if err != nil {
		g.stop()
		return nil, err
	}
	record(line, resp, int64(len(frames)))
	if err := g.stop(); err != nil {
		return nil, err
	}
	if st := resp.Stats; st == nil {
		bad("close-session reply carries no stats")
	} else if st.PacketsInjected != wantPackets || st.PacketsDelivered != wantPackets {
		bad("script scheduled %d packets, session injected %d, delivered %d", wantPackets, st.PacketsInjected, st.PacketsDelivered)
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out, nil
}

// scriptPackets counts the packets the script's transfers expand into.
func scriptPackets(ops []cosimOp) int64 {
	var n int64
	for _, op := range ops {
		if !op.advance {
			n += int64(len(cosim.ExpandTransfer(op.src, op.dst, op.bytes, 0)))
		}
	}
	return n
}

func runCosim(p params) (*result, error) {
	res := &result{}
	topo := topology.NewMesh(8, 8)
	groups := int(cosimGroups / p.shrink)
	if groups < 1 {
		groups = 1
	}
	gen0 := time.Now()
	ops := cosimScript(p.seed, groups, topo.NumCores())
	frames, err := cosimFrames(ops)
	if err != nil {
		return nil, err
	}
	genMs := time.Since(gen0).Seconds() * 1e3
	want := scriptPackets(ops)

	sp := startSpeedSampler()
	defer sp.finish()

	// Set-up: start a daemon and open the session. Only the first open
	// pays the engine's shard-threshold calibration, which is cached per
	// process.
	var setups []float64
	setUp := func(n int) error {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			g := startRig()
			_, resp, err := g.call(frames[0])
			setups = append(setups, time.Since(t0).Seconds())
			if serr := g.stop(); err == nil {
				err = serr
			}
			if err != nil {
				return err
			}
			if !resp.OK {
				return fmt.Errorf("open-session: %s: %s", resp.Code, resp.Err)
			}
		}
		return nil
	}
	if err := setUp(setupFirst); err != nil {
		return nil, err
	}
	passes := 0

	var u unitFigures
	var xfer []float64 // every transfer's wall seconds, all passes
	var digest string
	mem := memNow()
	units, err := repeat(p.budget, func() error {
		if passes++; passes > 1 {
			if err := setUp(setupEach); err != nil {
				return err
			}
		}
		res.attempted += len(frames)
		pass, err := runCosimPass(frames, ops, want, false, nil)
		if err != nil {
			res.fail(len(frames), "daemon pass: %v", err)
			return nil
		}
		if pass.failed > 0 {
			res.fail(pass.failed, "%v", pass.problems)
		}
		if digest == "" {
			digest = pass.digest
			if p.pinned() {
				if err := checkDigest("reply stream", pass.digest, pinnedDigests["cosim-bursty"]); err != nil {
					res.fail(len(frames), "%v", err)
				}
			}
		} else if pass.digest != digest {
			res.fail(len(frames), "reply stream digest %s differs from the first pass's %s", pass.digest, digest)
		}
		var adv []float64
		for i, op := range ops {
			if op.advance {
				adv = append(adv, pass.rt[i])
			} else {
				xfer = append(xfer, pass.rt[i])
			}
		}
		u.add(pass.start, pass.end, len(ops), pass.advanced*int64(topo.NumRouters()), adv)
		return nil
	})
	if err != nil {
		return nil, err
	}
	allocMB, gcs := mem.since(units)
	res.digest = digest

	u.report(res, setups, sp)
	res.layer.set("cosim.transfer_p50_us", median(xfer)*1e6, "us")
	res.layer.set("cosim.transfer_samples", float64(len(xfer)), "count")
	res.layer.set("traffic.generate_ms", genMs, "ms")
	res.layer.set("traffic.entries", float64(want), "count")
	res.layer.set("runtime.alloc_mb", allocMB, "MiB")
	res.layer.set("runtime.gc_cycles", gcs, "count")
	if !p.trace {
		return res, nil
	}

	// Traced pass: the script through the daemon with a span per op, then
	// the same ops replayed directly on a sim.Session with a decorated
	// feature extractor. The replay rebuilds every reply, so its stream
	// must match the daemon's byte for byte.
	var rec *recorder
	var pass *cosimPass
	var traced []float64
	for i := 0; i < tracedPasses; i++ {
		rec = newRecorder(fmt.Sprintf("cosim-bursty/seed%d", p.seed))
		if pass, err = runCosimPass(frames, ops, want, true, rec); err != nil {
			return nil, err
		}
		traced = append(traced, pass.end.Sub(pass.start).Seconds())
		res.attempted += len(frames)
		if pass.failed > 0 {
			res.fail(pass.failed, "traced daemon pass: %v", pass.problems)
		}
		if pass.digest != digest {
			res.fail(len(frames), "traced reply digest %s differs from the untraced %s", pass.digest, digest)
		}
	}
	res.rec = rec
	rp, err := replayDirect(topo, ops, rec)
	if err != nil {
		return nil, err
	}
	res.attempted += len(frames)
	if rp.digest != digest {
		res.fail(len(frames), "direct replay digest %s differs from the daemon's %s", rp.digest, digest)
	}
	if bad := rp.tally.conserved(); len(bad) > 0 {
		res.fail(len(bad), "direct replay: %v", bad)
	}
	rp.tally.layerMetrics(&res.layer, rec.total("sim.op"))
	res.attempted++
	if sf := frac(rp.tally.skipped, rp.tally.ticks); sf <= 0.5 {
		res.fail(1, "engagement: sim.skip_frac is %g — the event horizon skipped too few idle ticks", sf)
	}
	diffs := make([]float64, len(ops))
	for i := range ops {
		diffs[i] = pass.rt[i] - rp.opSec[i]
	}
	res.layer.set("cosim.overhead_us", median(diffs)*1e6, "us")
	res.layer.set("sim.snapshot_us", median(rp.snapSec)*1e6, "us")
	res.layer.set("features.collect_ns", rp.feats.perCall(), "ns")
	res.layer.set("features.calls", float64(rp.feats.calls), "count")

	dec, enc, err := codecCost(frames, pass.replies, rec)
	if err != nil {
		return nil, err
	}
	res.layer.set("cosim.decode_ns", dec, "ns")
	res.layer.set("cosim.encode_ns", enc, "ns")
	res.layer.set("trace.overhead_frac", median(traced)/median(u.rawWalls())-1, "ratio")
	res.layer.set("trace.spans", float64(len(rec.spans)), "count")
	setSelfTimes(&res.layer, rec)
	return res, nil
}

// directReplay is what the direct sim.Session replay measured.
type directReplay struct {
	digest  string
	opSec   []float64 // per scripted op: session calls plus the snapshot
	snapSec []float64
	tally   simTally
	feats   callStats
}

// replayDirect applies the script to a sim.Session configured as the
// daemon configures one, taking a Snapshot after every op as the daemon
// does, and rebuilds the reply stream the daemon would send.
func replayDirect(topo topology.Topology, ops []cosimOp, rec *recorder) (*directReplay, error) {
	out := &directReplay{opSec: make([]float64, len(ops))}
	root := rec.begin("sim.replay", -1)
	ext := &timedExtractor{inner: features.NewExtractor(topo), rec: rec, parent: root}
	o := obs.New()
	sess, err := sim.NewSession(sim.Config{
		Topo:      topo,
		Spec:      policy.DozzNoC(policy.ReactiveSelector{}),
		Obs:       o,
		Extractor: ext,
	})
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	emit := func(r *cosim.Response) error {
		b, err := cosim.EncodeResponse(r)
		if err != nil {
			return err
		}
		h.Write(b)
		return nil
	}
	snapshot := func(parent int32) sim.SessionStats {
		s := rec.begin("sim.snapshot", parent)
		st := sess.Snapshot()
		out.snapSec = append(out.snapSec, float64(rec.end(s))/1e9)
		return st
	}
	snapshot(root)
	if err := emit(&cosim.Response{V: cosim.Version, ID: 1, OK: true, Session: cosimSession, Cores: sess.Cores()}); err != nil {
		return nil, err
	}
	var staticJ, dynamicJ float64
	for i, op := range ops {
		sp := rec.begin("sim.op", root)
		ext.parent = sp
		resp := &cosim.Response{V: cosim.Version, ID: int64(i + 2), OK: true}
		if op.advance {
			n, err := sess.Advance(cosimEpochTicks)
			if err != nil {
				return nil, err
			}
			st := snapshot(sp)
			resp.Advanced, resp.Now = n, st.Tick
			resp.StaticDeltaJ, resp.DynamicDeltaJ = st.StaticJ-staticJ, st.DynamicJ-dynamicJ
			staticJ, dynamicJ = st.StaticJ, st.DynamicJ
		} else {
			entries := cosim.ExpandTransfer(op.src, op.dst, op.bytes, sess.Now())
			est, err := sess.EstimateLatency(op.src, op.dst, entries[0].Kind)
			if err != nil {
				return nil, err
			}
			for _, en := range entries {
				if err := sess.Schedule(en.Time, en.Src, en.Dst, en.Kind); err != nil {
					return nil, err
				}
			}
			snapshot(sp)
			resp.Packets, resp.LatencyEst = len(entries), est
		}
		out.opSec[i] = float64(rec.end(sp)) / 1e9
		if err := emit(resp); err != nil {
			return nil, err
		}
	}
	st := wireStats(snapshot(root))
	r := sess.Close()
	rec.end(root)
	if err := emit(&cosim.Response{V: cosim.Version, ID: int64(len(ops) + 2), OK: true, Now: r.Ticks, Stats: &st}); err != nil {
		return nil, err
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	out.tally.addResult(r, topo.NumRouters())
	if !r.Drained {
		// The script never drains the session — it ends on an idle phase —
		// so conservation rests on the injected/delivered counters alone.
		out.tally.undrainedRuns--
	}
	snap := o.Metrics.Snapshot()
	out.tally.poolHits, out.tally.poolMisses = snap.PoolHits, snap.PoolMisses
	out.feats = ext.stats
	return out, nil
}

// wireStats is the daemon's wire form of a session snapshot.
func wireStats(st sim.SessionStats) cosim.Stats {
	return cosim.Stats{
		Tick:             st.Tick,
		PacketsInjected:  st.PacketsInjected,
		PacketsDelivered: st.PacketsDelivered,
		FlitsDelivered:   st.FlitsDelivered,
		LatencySumTicks:  st.LatencySumTicks,
		LatencyCount:     st.LatencyCount,
		AvgLatencyTicks:  st.AvgLatencyTicks,
		StaticJ:          st.StaticJ,
		DynamicJ:         st.DynamicJ,

		EpochDecisions:       st.EpochDecisions,
		MeanAbsPredErr:       st.MeanAbsPredErr,
		UnderPredDecisions:   st.UnderPredDecisions,
		OverPredDecisions:    st.OverPredDecisions,
		UnderPredStallTicks:  st.UnderPredStallTicks,
		OverPredStaticWasteJ: st.OverPredStaticWasteJ,
		PredDriftEvents:      st.PredDriftEvents,
	}
}

// codecCost times cosim.DecodeFrame over the recorded request frames and
// cosim.EncodeResponse over the recorded replies, in ns per frame.
func codecCost(frames, replies [][]byte, rec *recorder) (decNs, encNs float64, err error) {
	resps := make([]cosim.Response, len(replies))
	for i, l := range replies {
		if err := json.Unmarshal(l, &resps[i]); err != nil {
			return 0, 0, err
		}
	}
	s := rec.begin("cosim.decode", -1)
	for _, f := range frames {
		if _, perr := cosim.DecodeFrame(f); perr != nil {
			return 0, 0, perr
		}
	}
	dec := rec.end(s)
	s = rec.begin("cosim.encode", -1)
	for i := range resps {
		if _, err := cosim.EncodeResponse(&resps[i]); err != nil {
			return 0, 0, err
		}
	}
	enc := rec.end(s)
	return float64(dec) / float64(len(frames)), float64(enc) / float64(len(resps)), nil
}
