// The crash-safe job runner: a bounded worker pool over the canonical
// run matrix, suites shared per configuration group, traces shared
// globally, and an in-order fsync'd JSONL writer.

package sweep

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/traffic"
)

// Options tune one RunJob invocation.
type Options struct {
	// Workers bounds the pool (0 falls back to Spec.Workers, then
	// GOMAXPROCS).
	Workers int
	// MaxNewRuns stops the job after writing this many new rows (0 = run
	// to completion). It exists for incremental batches and for the
	// restart tests and `make sweep-smoke`, which use it to simulate a
	// mid-job crash at a deterministic point.
	MaxNewRuns int
	// Log receives one progress line per completed row (nil = silent).
	Log io.Writer
}

// Report summarizes one RunJob invocation.
type Report struct {
	Total     int  // matrix size
	Resumed   int  // intact rows already on disk when the job started
	Written   int  // new rows appended by this invocation
	Truncated bool // a torn final line was discarded before appending
	Stopped   bool // MaxNewRuns ended the job before the matrix finished
}

// Done reports whether the results file now covers the whole matrix.
func (r *Report) Done() bool { return r.Resumed+r.Written == r.Total }

// RunJob executes the spec's run matrix, appending one fsync'd JSONL row
// per completed run to outPath in canonical matrix order. If outPath
// already holds a prefix of this spec's results (from a crashed or
// MaxNewRuns-bounded earlier invocation), those runs are skipped and a
// torn final line is truncated away first; the bytes ultimately on disk
// are identical to an uninterrupted job's.
func RunJob(spec *Spec, outPath string, opt Options) (*Report, error) {
	return newRunner(spec).runJob(spec, outPath, opt)
}

// runJob is RunJob against r's caches.
func (r *runner) runJob(spec *Spec, outPath string, opt Options) (*Report, error) {
	runs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	prev, validOff, torn, err := ReadResults(outPath)
	if err != nil {
		return nil, err
	}
	if len(prev) > len(runs) {
		return nil, fmt.Errorf("sweep: %s holds %d rows but the spec expands to %d runs — wrong results file?",
			outPath, len(prev), len(runs))
	}
	for i := range prev {
		if prev[i].ID != runs[i].ID {
			return nil, fmt.Errorf("sweep: %s row %d is %s, spec expects %s — results file belongs to a different spec",
				outPath, i, prev[i].ID, runs[i].ID)
		}
	}
	done := len(prev)
	report := &Report{Total: len(runs), Resumed: done, Truncated: torn}
	if done == len(runs) && !torn {
		return report, nil
	}

	f, err := os.OpenFile(outPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	// Cut the torn tail (a no-op on a clean file) so every append lands
	// exactly where the uninterrupted job would have put it.
	if err := f.Truncate(validOff); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(validOff, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}

	last := len(runs)
	if opt.MaxNewRuns > 0 && done+opt.MaxNewRuns < last {
		last = done + opt.MaxNewRuns
		report.Stopped = true
	}
	workers := opt.Workers
	if workers == 0 {
		workers = spec.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n := last - done; workers > n {
		workers = n
	}

	type outcome struct {
		idx int
		row Row
		err error
	}
	indexCh := make(chan int)
	resultCh := make(chan outcome, last-done)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	go func() {
		defer close(indexCh)
		for i := done; i < last; i++ {
			select {
			case indexCh <- i:
			case <-stop:
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One observer per worker: a Metrics binds to a single run
			// at a time, and rebinding resets it, so a worker can reuse
			// its own across every run it executes.
			o := obs.New()
			for idx := range indexCh {
				row, err := r.execute(&runs[idx], o)
				resultCh <- outcome{idx: idx, row: row, err: err}
			}
		}()
	}

	// In-order writer: completions arrive out of order, rows leave in
	// canonical order, each line fsync'd before the next. The file is
	// therefore always a prefix of the full canonical output.
	pending := make(map[int]Row, workers)
	next := done
	var firstErr error
	for received := 0; received < last-done; received++ {
		out := <-resultCh
		if out.err != nil {
			firstErr = fmt.Errorf("sweep: run %s: %w", runs[out.idx].ID, out.err)
			break
		}
		pending[out.idx] = out.row
		for {
			row, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			line, err := encodeRow(&row)
			if err == nil {
				_, err = f.Write(line)
			}
			if err == nil {
				err = f.Sync()
			}
			if err != nil {
				firstErr = err
				break
			}
			next++
			report.Written++
			if opt.Log != nil {
				fmt.Fprintf(opt.Log, "sweep: [%d/%d] %s\n", next, len(runs), row.ID)
			}
		}
		if firstErr != nil {
			break
		}
	}
	// resultCh's buffer holds the whole schedule, so workers never block
	// on send: stopping the feeder and waiting is a clean shutdown even
	// when the loop above bailed early.
	close(stop)
	wg.Wait()

	if cerr := f.Close(); cerr != nil && firstErr == nil {
		firstErr = cerr
	}
	if firstErr != nil {
		return report, firstErr
	}
	return report, nil
}

// suiteKey identifies one engine-suite configuration group: every axis
// that changes the suite's construction or training. Benchmarks,
// compression factors and model kinds share a group's suite.
type suiteKey struct {
	topo   string
	seed   int64
	epoch  int64
	punch  int
	lambda string
}

// traceKey identifies one immutable generated base trace.
type traceKey struct {
	topo  string
	seed  int64
	bench string
}

// runner holds the shared caches of one RunJob invocation.
type runner struct {
	spec Spec // defaults applied

	mu     sync.Mutex
	groups map[suiteKey]*core.Suite
	traces map[traceKey]*core.Flight[*traffic.Trace]
}

func newRunner(spec *Spec) *runner {
	return &runner{
		spec:   spec.withDefaults(),
		groups: make(map[suiteKey]*core.Suite),
		traces: make(map[traceKey]*core.Flight[*traffic.Trace]),
	}
}

// execute runs one matrix cell and folds the result into its row.
func (r *runner) execute(run *Run, o *obs.Observer) (Row, error) {
	s, err := r.suiteFor(run)
	if err != nil {
		return Row{}, err
	}
	if run.Kind.IsML() {
		// Workers training one kind at once split its harvests; later
		// calls return the cached report.
		if _, err := s.Train(run.Kind); err != nil {
			return Row{}, err
		}
	}
	if err := r.shareTrace(s, run); err != nil {
		return Row{}, err
	}
	res, err := s.RunBenchmarkObs(run.Kind, run.Bench, run.Compress, o)
	if err != nil {
		return Row{}, err
	}
	var snap *obs.Snapshot
	if o != nil && o.Metrics != nil {
		s := o.Metrics.Snapshot()
		snap = &s
	}
	return makeRow(run, res, snap), nil
}

// suiteFor returns (creating on first use) the suite of the run's
// configuration group.
func (r *runner) suiteFor(run *Run) (*core.Suite, error) {
	key := suiteKey{topo: run.Topo, seed: run.Seed, epoch: run.EpochTicks, punch: run.PunchHops, lambda: run.Lambda}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.groups[key]; ok {
		return s, nil
	}
	topo, err := cli.ParseTopo(run.Topo)
	if err != nil {
		return nil, err
	}
	grid, err := run.LambdaGrid()
	if err != nil {
		return nil, err
	}
	opts := core.Options{
		Horizon:        r.spec.Horizon,
		EpochTicks:     run.EpochTicks,
		Seed:           run.Seed,
		Shards:         r.spec.Shards,
		ShardMinActive: r.spec.ShardMinActive,
		Lambdas:        grid,
	}
	// PunchSweep convention: 0 disables path punching, everything else
	// (including the explicit whole-path -1) forwards as a hop count.
	if run.PunchHops == 0 {
		opts.NoPathPunch = true
	} else {
		opts.PunchHops = run.PunchHops
	}
	s := core.NewSuite(topo, opts)
	r.groups[key] = s
	return s, nil
}

// shareTrace makes the run's base trace visible to its suite, so the many
// suites (different epochs, lambdas, punch settings) that replay one
// (topo, seed, bench) workload share a single generated trace. The first
// run to ask claims the job-wide entry and generates the trace through
// its own suite; every other run, of any suite, waits for it, so suites
// that miss at the same moment still generate it once. A failed
// generation leaves the cache, and a later run retries it.
func (r *runner) shareTrace(s *core.Suite, run *Run) error {
	key := traceKey{topo: run.Topo, seed: run.Seed, bench: run.Bench}
	r.mu.Lock()
	f, ok := r.traces[key]
	if !ok {
		f = core.NewFlight[*traffic.Trace]()
		r.traces[key] = f
	}
	r.mu.Unlock()
	if ok {
		tr, err := f.Wait()
		if err != nil {
			return err
		}
		s.PutTrace(run.Bench, tr)
		return nil
	}
	tr, err := s.Trace(run.Bench)
	if err != nil {
		r.mu.Lock()
		delete(r.traces, key)
		r.mu.Unlock()
	}
	f.Finish(tr, err)
	return err
}
