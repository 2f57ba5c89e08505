package core

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func (s *Suite) harvestCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.harvests
}

// waitersParked counts the goroutines that have found an in-flight cache
// entry and are waiting for it.
func waitersParked() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("core.(*Flight[...]).Wait("))
}

// TestConcurrentTrainHarvestsOnce pins the claim-then-wait harvest: four
// goroutines training one kind at once run each of its 9 reactive
// harvests exactly once between them and end with the report a
// sequential Train produces. A failed harvest reaches every goroutine
// waiting on it and is not cached.
func TestConcurrentTrainHarvestsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("training pipeline in -short mode")
	}
	const callers = 4
	s := tinySuite(t)
	reps := make([]*ml.TrainReport, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = s.Train(KindDozzNoC)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
		if reps[i] != reps[0] {
			t.Fatalf("caller %d got a different report than caller 0", i)
		}
	}
	if n := s.harvestCount(); n != 9 {
		t.Fatalf("%d harvests ran for 4 concurrent Train calls, want 9", n)
	}
	seq, err := tinySuite(t).Train(KindDozzNoC)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reps[0], seq) {
		t.Fatalf("concurrent Train report differs from sequential:\nconc: %+v\nseq:  %+v", reps[0], seq)
	}

	// Hold the bogus trace's entry in flight, so the first caller's
	// harvest blocks inside Trace while the other three wait on its
	// harvest entry; release it once all four are parked.
	const bogus = "nosuch"
	tf := NewFlight[*traffic.Trace]()
	s.mu.Lock()
	s.traces[bogus] = tf
	s.mu.Unlock()
	before := s.harvestCount()
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Dataset(KindDozzNoC, bogus)
		}(i)
	}
	for waitersParked() < callers {
		runtime.Gosched()
	}
	if n := s.harvestCount() - before; n != 1 {
		t.Fatalf("%d harvests started for %d concurrent callers, want 1", n, callers)
	}
	s.mu.Lock()
	delete(s.traces, bogus)
	s.mu.Unlock()
	unavailable := errors.New("trace unavailable")
	tf.Finish(nil, unavailable)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, unavailable) {
			t.Fatalf("caller %d got %v, want the owner's harvest error", i, err)
		}
	}
	s.mu.Lock()
	_, cached := s.datasets[datasetKey{KindDozzNoC, bogus}]
	s.mu.Unlock()
	if cached {
		t.Fatal("failed harvest left its entry in the cache")
	}
	if _, err := s.Dataset(KindDozzNoC, bogus); err == nil {
		t.Fatal("retried harvest of an unknown trace succeeded")
	}
	if n := s.harvestCount() - before; n != 2 {
		t.Fatalf("%d harvests after the retry, want 2: the failure was cached", n)
	}
}

// TestTrainedSuiteNeverHarvests installs every ML kind up front, as a
// weights-loaded or passthrough suite does: training it again must return
// the installed models without running a single reactive harvest.
func TestTrainedSuiteNeverHarvests(t *testing.T) {
	s := tinySuite(t)
	for _, k := range MLKinds {
		s.SetTrainedModel(k, &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}})
	}
	if err := s.TrainAll(); err != nil {
		t.Fatal(err)
	}
	for _, k := range MLKinds {
		rep, err := s.Train(k)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Best != s.TrainedModel(k) {
			t.Fatalf("%v: Train replaced the installed model", k)
		}
	}
	if n := s.harvestCount(); n != 0 {
		t.Fatalf("%d harvests ran on a suite with every ML kind installed, want 0", n)
	}
}

// TestParallelEntryPointsConcurrently exercises HarvestParallel,
// TrainAll, Train, Compare and RunBenchmarks at the same time on one
// shared suite, so `go test -race` patrols the cache locking and the
// pool. DVFS+ML and DozzNoC get passthrough models up front; ML+TURBO is
// left untrained, so TrainAll harvests its 9 datasets while the batch of
// installed kinds runs, and each Compare first trains it, claiming or
// waiting on the same harvests.
func TestParallelEntryPointsConcurrently(t *testing.T) {
	s := NewSuite(topology.NewMesh(4, 4), Options{Horizon: 4000, Seed: 3})
	passthrough := &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}}
	installed := []ModelKind{KindLEAD, KindDozzNoC}
	for _, k := range installed {
		s.SetTrainedModel(k, passthrough)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	var mu sync.Mutex
	comparisons := make(map[string]*Comparison)
	run := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				errs <- err
			}
		}()
	}

	harvested := []string{"fft", "blackscholes"}
	run(func() error { return s.HarvestParallel(MLKinds, harvested) })
	run(s.TrainAll)
	for _, bench := range harvested {
		run(func() error {
			if _, err := s.Train(KindTurbo); err != nil {
				return err
			}
			c, err := s.Compare(bench, 1)
			if err != nil {
				return err
			}
			mu.Lock()
			comparisons[bench] = c
			mu.Unlock()
			return nil
		})
	}
	runs := []Run{{KindDozzNoC, "fft", 1}, {KindLEAD, "lu", 2}, {KindDozzNoC, "blackscholes", 1}}
	var batch []*sim.Result
	run(func() (err error) {
		batch, err = s.RunBenchmarks(runs)
		return err
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for bench, c := range comparisons {
		if len(c.Results) != len(AllKinds) {
			t.Errorf("%s: comparison has %d results, want %d", bench, len(c.Results), len(AllKinds))
		}
	}
	for i, res := range batch {
		if res == nil || !res.Drained {
			t.Errorf("%+v: batch run missing or undrained", runs[i])
		}
	}
	for _, k := range installed {
		if s.TrainedModel(k) != passthrough {
			t.Errorf("%v: the installed model was replaced", k)
		}
	}
	if s.TrainedModel(KindTurbo) == nil {
		t.Error("ML+TURBO not trained")
	}
	// ML+TURBO's 9 training datasets plus the explicit harvest's 6, of
	// which ML+TURBO on blackscholes (a training trace) is shared.
	if n, want := s.harvestCount(), len(trainingTraces())+len(MLKinds)*len(harvested)-1; n != want {
		t.Errorf("%d harvests ran, want %d", n, want)
	}
}

// TestObservedSuiteRunsSerially runs TrainAll and Compare on a suite with
// an observer attached. A Metrics binds to one run at a time, so the pool
// must run the suite's simulations one by one; under `go test -race` a
// wider pool sharing the Metrics is flagged. The bind count shows the
// observer folded every run: the 27 reactive harvests and the 5 compared
// models.
func TestObservedSuiteRunsSerially(t *testing.T) {
	o := obs.New()
	s := NewSuite(topology.NewMesh(4, 4), Options{Horizon: 4000, Seed: 3, Obs: o})
	if width, _ := s.pool(); width != 1 {
		t.Fatalf("observed suite's pool is %d runs wide, want 1", width)
	}
	if err := s.TrainAll(); err != nil {
		t.Fatal(err)
	}
	harvests := int64(len(MLKinds) * len(trainingTraces()))
	if got := o.Metrics.Snapshot().Run; got != harvests {
		t.Fatalf("observer bound %d runs during TrainAll, want %d", got, harvests)
	}
	if _, err := s.Compare("fft", 1); err != nil {
		t.Fatal(err)
	}
	snap := o.Metrics.Snapshot()
	if want := harvests + int64(len(AllKinds)); snap.Run != want {
		t.Fatalf("observer bound %d runs, want %d", snap.Run, want)
	}
	if snap.Label == "" || snap.Epochs == 0 {
		t.Fatalf("last compared run not folded: %+v", snap)
	}
}
