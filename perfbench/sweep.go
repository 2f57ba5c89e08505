package main

// sweep-paper: the batch job users launch to reproduce the paper — the
// 8x8 mesh x the five test-split benchmarks x all five models x
// compression {1,2} x one seed, through sweep.RunJob with one worker per
// CPU. Its time goes to training (reactive harvest plus ridge tuning),
// active-set stepping at moderate load, ML predictions at epoch
// boundaries, the obs fold and the JSONL writer. The sweep pins Shards=1,
// so sharding is bypassed here.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// sweepHorizon is the trace generation window of every benchmark trace
// (the paper uses 120k ticks; a short window keeps one job to a few
// seconds, so a run measures several whole jobs).
const sweepHorizon = 5_000

func sweepSpec(p params) *sweep.Spec {
	return &sweep.Spec{
		Topos:    []string{"mesh8x8"},
		Seeds:    []int64{p.seed},
		Compress: []int64{1, 2},
		Horizon:  sweepHorizon / p.shrink,
		Shards:   1,
		Workers:  runtime.GOMAXPROCS(0),
	}
}

// logClock timestamps the first progress line RunJob writes, which marks
// the first completed row.
type logClock struct{ first time.Time }

func (l *logClock) Write(b []byte) (int, error) {
	if l.first.IsZero() {
		l.first = time.Now()
	}
	return len(b), nil
}

// checkRows verifies a results file against the expanded matrix: one row
// per run in order, every run drained, every injected packet delivered.
// It returns the failures and the summed router-ticks.
func checkRows(data []byte, runs []sweep.Run, routers int) (bad []string, routerTicks int64) {
	lines := bytes.SplitAfter(data, []byte{'\n'})
	if n := len(lines) - 1; n != len(runs) || len(lines[n]) != 0 {
		return []string{fmt.Sprintf("%d lines for %d runs", n, len(runs))}, 0
	}
	for i, run := range runs {
		var row sweep.Row
		if err := json.Unmarshal(lines[i], &row); err != nil {
			bad = append(bad, fmt.Sprintf("row %d: %v", i, err))
			continue
		}
		switch {
		case row.ID != run.ID:
			bad = append(bad, fmt.Sprintf("row %d is %s, want %s", i, row.ID, run.ID))
		case !row.Drained:
			bad = append(bad, fmt.Sprintf("row %s did not drain", row.ID))
		case row.PacketsInjected != row.PacketsDelivered:
			bad = append(bad, fmt.Sprintf("row %s injected %d, delivered %d", row.ID, row.PacketsInjected, row.PacketsDelivered))
		}
		routerTicks += row.Ticks * int64(routers)
	}
	return bad, routerTicks
}

func runSweep(p params) (*result, error) {
	res := &result{}
	spec := sweepSpec(p)
	workers := spec.Workers
	topo, err := cli.ParseTopo(spec.Topos[0])
	if err != nil {
		return nil, err
	}
	base := filepath.Join(p.outDir, "sweep")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	sp := startSpeedSampler()
	defer sp.finish()

	// Set-up: expand the spec and create the job's output directory.
	var setups []float64
	var runs []sweep.Run
	var dir string
	setUp := func(n int) error {
		for i := 0; i < n; i++ {
			if dir != "" {
				if err := os.RemoveAll(dir); err != nil {
					return err
				}
			}
			t0 := time.Now()
			runs, err = spec.Expand()
			if err == nil {
				dir, err = os.MkdirTemp(base, "job-")
			}
			setups = append(setups, time.Since(t0).Seconds())
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := setUp(setupFirst); err != nil {
		return nil, err
	}

	var u unitFigures
	var firstRows []float64
	var digest string
	jobs := 0
	mem := memNow()
	units, err := repeat(p.budget, func() error {
		if jobs++; jobs > 1 {
			if err := setUp(setupEach); err != nil {
				return err
			}
		}
		path := filepath.Join(dir, "results.jsonl")
		clock := &logClock{}
		res.attempted += len(runs)
		t0 := time.Now()
		rep, err := sweep.RunJob(spec, path, sweep.Options{Workers: workers, Log: clock})
		t1 := time.Now()
		if err != nil {
			res.fail(len(runs), "job %d: %v", jobs, err)
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		os.Remove(path)
		bad, routerTicks := checkRows(data, runs, topo.NumRouters())
		if !rep.Done() {
			bad = append(bad, fmt.Sprintf("job wrote %d of %d rows", rep.Written, rep.Total))
		}
		d := sha256Hex(data)
		if digest == "" {
			digest = d
			if p.pinned() {
				if err := checkDigest("results file", d, pinnedDigests["sweep-paper"]); err != nil {
					bad = append(bad, err.Error())
				}
			}
		} else if d != digest {
			bad = append(bad, fmt.Sprintf("job %d results digest %s differs from job 1's %s", jobs, d, digest))
		}
		if len(bad) > 0 {
			res.fail(len(runs), "job %d: %v", jobs, bad)
		}
		u.add(t0, t1, rep.Written, routerTicks, nil)
		firstRows = append(firstRows, clock.first.Sub(t0).Seconds())
		return nil
	})
	if err != nil {
		return nil, err
	}
	allocMB, gcs := mem.since(units)
	res.digest = digest

	u.report(res, setups, sp)
	res.layer.set("sweep.first_row_s", median(firstRows), "s")
	res.layer.set("runtime.alloc_mb", allocMB, "MiB")
	res.layer.set("runtime.gc_cycles", gcs, "count")
	if !p.trace {
		return res, nil
	}

	// Traced pass: the same job, with a span around each call into a
	// layer and the feature extractor and trained predictors decorated.
	rec := newRecorder(fmt.Sprintf("sweep-paper/seed%d", p.seed))
	res.rec = rec
	path := filepath.Join(dir, "traced.jsonl")
	tr, err := tracedSweep(spec, runs, topo, path, workers, rec)
	if err != nil {
		return nil, err
	}
	res.attempted += len(runs)
	if tr.digest != digest {
		res.fail(len(runs), "traced results digest %s differs from the untraced %s", tr.digest, digest)
	}
	if bad := tr.tally.conserved(); len(bad) > 0 {
		res.fail(len(bad), "traced job: %v", bad)
	}
	res.attempted++
	if tr.preds.calls == 0 {
		res.fail(1, "engagement: ml.predict_calls is 0 — the sweep never reached a trained predictor")
	}
	tr.tally.layerMetrics(&res.layer, rec.total("sim.run"))
	res.layer.set("traffic.generate_ms", float64(rec.total("traffic.generate"))/1e6, "ms")
	res.layer.set("traffic.entries", float64(tr.entries), "count")
	res.layer.set("core.harvest_s", float64(rec.total("core.harvest"))/1e9, "s")
	res.layer.set("ml.tune_s", float64(rec.total("ml.tune"))/1e9, "s")
	res.layer.set("ml.dataset_rows", float64(tr.datasetRows), "count")
	res.layer.set("ml.predict_ns", tr.preds.perCall(), "ns")
	res.layer.set("ml.predict_calls", float64(tr.preds.calls), "count")
	res.layer.set("features.collect_ns", tr.feats.perCall(), "ns")
	res.layer.set("features.calls", float64(tr.feats.calls), "count")
	busy := float64(rec.total("sim.run")+rec.total("core.harvest")) / 1e9
	res.layer.set("sweep.pool_busy_frac", busy/(float64(workers)*tr.wall), "ratio")
	res.layer.set("trace.overhead_frac", tr.wall/median(u.rawWalls())-1, "ratio")
	res.layer.set("trace.spans", float64(len(rec.spans)), "count")
	setSelfTimes(&res.layer, rec)

	ov, err := obsOverhead(tr.suite, &runs[cellIndex(runs)])
	if err != nil {
		return nil, err
	}
	res.layer.set("obs.overhead_frac", ov, "ratio")
	return res, nil
}

// sweepTrace is what the traced sweep pass measured.
type sweepTrace struct {
	suite       *core.Suite
	wall        float64
	digest      string
	tally       simTally
	feats       callStats
	preds       callStats
	datasetRows int
	entries     int
}

// mlSpec builds the policy spec of a trained kind around predictor m,
// exactly as core.Suite.Spec does around the bare model.
func mlSpec(k core.ModelKind, m policy.Predictor, routers int) policy.Spec {
	sel := policy.ProactiveSelector{Model: m, ModelName: k.String()}
	switch k {
	case core.KindLEAD:
		return policy.DVFSML(sel)
	case core.KindDozzNoC:
		return policy.DozzNoC(sel)
	}
	return policy.MLTurbo(sel, routers)
}

// simConfig is the run configuration core.Suite.RunTraceObs builds.
func simConfig(s *core.Suite, spec policy.Spec, tr *traffic.Trace, o *obs.Observer) sim.Config {
	return sim.Config{
		Topo:           s.Topo,
		Spec:           spec,
		Trace:          tr,
		VCs:            s.Opts.VCs,
		Depth:          s.Opts.Depth,
		Pipeline:       s.Opts.Pipeline,
		LinkTicks:      s.Opts.LinkTicks,
		EpochTicks:     s.Opts.EpochTicks,
		Shards:         s.Opts.Shards,
		ShardMinActive: s.Opts.ShardMinActive,
		PunchHops:      s.Opts.PunchHops,
		NoPathPunch:    s.Opts.NoPathPunch,
		Obs:            o,
	}
}

// tracedSweep runs the job RunJob runs — same suite options, same worker
// count, rows written in matrix order and fsync'd — but from the
// benchmark's own loop, so each layer call gets a span: trace generation,
// the reactive harvest, ridge tuning, and every simulation with its
// feature extractor and trained predictor decorated. Its results file
// must be byte-identical to RunJob's.
func tracedSweep(spec *sweep.Spec, runs []sweep.Run, topo topology.Topology, path string, workers int, rec *recorder) (*sweepTrace, error) {
	out := &sweepTrace{}
	t0 := time.Now()
	root := rec.begin("sweep.job", -1)
	r0 := runs[0]
	opts := core.Options{Horizon: spec.Horizon, EpochTicks: r0.EpochTicks, Seed: r0.Seed, Shards: spec.Shards}
	if r0.PunchHops == 0 {
		opts.NoPathPunch = true
	} else {
		opts.PunchHops = r0.PunchHops
	}
	suite := core.NewSuite(topo, opts)
	out.suite = suite

	var genMu sync.Mutex
	generated := make(map[string]bool)
	gen := func(name string) error {
		genMu.Lock()
		defer genMu.Unlock()
		if generated[name] {
			return nil
		}
		s := rec.begin("traffic.generate", root)
		t, err := suite.Trace(name)
		rec.end(s)
		if err != nil {
			return err
		}
		out.entries += len(t.Entries)
		generated[name] = true
		return nil
	}
	var trainMu sync.Mutex
	trained := make(map[core.ModelKind]bool)
	train := func(k core.ModelKind) error {
		trainMu.Lock()
		defer trainMu.Unlock()
		if trained[k] {
			return nil
		}
		for _, split := range []traffic.Split{traffic.Train, traffic.Validation} {
			for _, pr := range traffic.ProfilesBySplit(split) {
				if err := gen(pr.Name); err != nil {
					return err
				}
			}
		}
		h := rec.begin("core.harvest", root)
		td, err := suite.MergedDataset(k, traffic.Train)
		if err == nil {
			_, err = suite.MergedDataset(k, traffic.Validation)
		}
		rec.end(h)
		if err != nil {
			return err
		}
		out.datasetRows += td.Len()
		t := rec.begin("ml.tune", root)
		_, err = suite.Train(k)
		rec.end(t)
		trained[k] = err == nil
		return err
	}

	type outcome struct {
		idx          int
		row          sweep.Row
		res          *sim.Result
		hits, misses int64
		feats, preds callStats
		err          error
	}
	exec := func(run *sweep.Run, o *obs.Observer) outcome {
		oc := outcome{idx: run.Index}
		if run.Kind.IsML() {
			if oc.err = train(run.Kind); oc.err != nil {
				return oc
			}
		}
		if oc.err = gen(run.Bench); oc.err != nil {
			return oc
		}
		c := rec.begin("traffic.compress", root)
		tr, err := suite.TraceCompressed(run.Bench, run.Compress)
		rec.end(c)
		if err != nil {
			oc.err = err
			return oc
		}
		s := rec.begin("sim.run", root)
		ext := &timedExtractor{inner: features.NewExtractor(topo), rec: rec, parent: s}
		var pred *timedPredictor
		var ps policy.Spec
		if run.Kind.IsML() {
			pred = &timedPredictor{inner: suite.TrainedModel(run.Kind), rec: rec, parent: s}
			ps = mlSpec(run.Kind, pred, topo.NumRouters())
		} else if ps, err = suite.Spec(run.Kind); err != nil {
			oc.err = err
			return oc
		}
		cfg := simConfig(suite, ps, tr, o)
		cfg.Extractor = ext
		oc.res, oc.err = sim.Run(cfg)
		rec.end(s)
		if oc.err != nil {
			return oc
		}
		snap := o.Metrics.Snapshot()
		oc.hits, oc.misses = snap.PoolHits, snap.PoolMisses
		oc.row = rowOf(run, oc.res, &snap)
		oc.feats = ext.stats
		if pred != nil {
			oc.preds = pred.stats
		}
		return oc
	}

	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	idxCh := make(chan int)
	resCh := make(chan outcome, len(runs)) // holds every outcome, so workers never block
	var wg sync.WaitGroup
	go func() {
		defer close(idxCh)
		for i := range runs {
			idxCh <- i
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := obs.New()
			for i := range idxCh {
				resCh <- exec(&runs[i], o)
			}
		}()
	}
	var data []byte
	pending := make(map[int]outcome)
	next := 0
	var firstErr error
	for received := 0; received < len(runs); received++ {
		oc := <-resCh
		if oc.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("run %s: %w", runs[oc.idx].ID, oc.err)
		}
		pending[oc.idx] = oc
		for ; firstErr == nil; next++ {
			oc, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			w := rec.begin("sweep.write", root)
			line, err := json.Marshal(&oc.row)
			if err == nil {
				line = append(line, '\n')
				data = append(data, line...)
				_, err = f.Write(line)
			}
			if err == nil {
				err = f.Sync()
			}
			rec.end(w)
			if err != nil {
				firstErr = err
				break
			}
			out.tally.addResult(oc.res, topo.NumRouters())
			out.tally.poolHits += oc.hits
			out.tally.poolMisses += oc.misses
			out.feats.add(oc.feats)
			out.preds.add(oc.preds)
		}
	}
	wg.Wait()
	rec.end(root)
	out.wall = time.Since(t0).Seconds()
	if firstErr != nil {
		return nil, firstErr
	}
	out.digest = sha256Hex(data)
	return out, nil
}

// rowOf folds a run's result into its results-file row, field for field
// as the sweep runner does.
func rowOf(r *sweep.Run, res *sim.Result, snap *obs.Snapshot) sweep.Row {
	row := sweep.Row{
		ID:         r.ID,
		Topo:       r.Topo,
		Bench:      r.Bench,
		Model:      r.Model,
		Seed:       r.Seed,
		EpochTicks: r.EpochTicks,
		Compress:   r.Compress,
		PunchHops:  r.PunchHops,
		Lambda:     r.Lambda,

		Ticks:            res.Ticks,
		Drained:          res.Drained,
		PacketsInjected:  res.PacketsInjected,
		PacketsDelivered: res.PacketsDelivered,
		FlitsDelivered:   res.FlitsDelivered,
		AvgLatencyTicks:  res.AvgLatencyTicks,
		LatencyP50:       res.Latency.P50,
		LatencyP95:       res.Latency.P95,
		LatencyP99:       res.Latency.P99,
		LatencyMax:       res.Latency.Max,
		Throughput:       res.Throughput,
		StaticJ:          res.StaticJ,
		DynamicJ:         res.DynamicJ,
		EDP:              res.EDP(),
		OffFraction:      res.OffFraction,
		WakeupFraction:   res.WakeupFraction,
		Gatings:          res.Policy.Gatings,
		Wakes:            res.Policy.Wakes,
		BreakevenMet:     res.Policy.BreakevenMet,
		ModeSwitches:     res.Policy.ModeSwitches,
		EpochDecisions:   res.Policy.EpochDecisions,

		MeanAbsPredErr:       res.MeanAbsPredErr,
		UnderPredDecisions:   res.UnderPredDecisions,
		OverPredDecisions:    res.OverPredDecisions,
		UnderPredStallTicks:  res.UnderPredStallTicks,
		OverPredStaticWasteJ: res.OverPredStaticWasteJ,
		PredDriftEvents:      res.PredDriftEvents,
	}
	det := snap.Deterministic()
	row.Obs = &det
	return row
}

// cellIndex picks the matrix cell the obs-overhead comparison replays:
// the first DozzNoC run.
func cellIndex(runs []sweep.Run) int {
	for i, r := range runs {
		if r.Kind == core.KindDozzNoC {
			return i
		}
	}
	return 0
}

// obsOverhead replays one cell with and without an attached observer,
// alternating, and returns the ratio of the best run times minus one.
func obsOverhead(s *core.Suite, run *sweep.Run) (float64, error) {
	tr, err := s.TraceCompressed(run.Bench, run.Compress)
	if err != nil {
		return 0, err
	}
	var with, without []float64
	for i := 0; i < 20; i++ {
		var o *obs.Observer
		if i%2 == 1 {
			o = obs.New()
		}
		runtime.GC() // start each run from the same heap state
		spec, err := s.Spec(run.Kind)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := sim.Run(simConfig(s, spec, tr, o)); err != nil {
			return 0, err
		}
		d := time.Since(t0).Seconds()
		if o != nil {
			with = append(with, d)
		} else {
			without = append(without, d)
		}
	}
	return best(with, true)/best(without, true) - 1, nil
}
