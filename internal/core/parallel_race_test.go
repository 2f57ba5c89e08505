package core

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/ml"
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

// TestParallelEntryPointsConcurrently exercises CompareParallel,
// HarvestParallel and TrainAllParallel at the same time on one shared
// suite, so `go test -race` patrols the cache locking and the worker
// pools. Passthrough models are installed up front so CompareParallel
// can run while the harvest is still populating the dataset cache.
func TestParallelEntryPointsConcurrently(t *testing.T) {
	s := NewSuite(topology.NewMesh(4, 4), Options{Horizon: 4000, Seed: 3})
	for _, k := range MLKinds {
		s.SetTrainedModel(k, &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}})
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	var mu sync.Mutex
	comparisons := make(map[string]*Comparison)

	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.HarvestParallel(MLKinds, []string{"fft", "blackscholes"}); err != nil {
			errs <- err
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		// TrainAllParallel re-harvests every train/validation dataset and
		// then overwrites the passthrough models under the suite lock.
		if err := s.TrainAllParallel(); err != nil {
			errs <- err
		}
	}()
	for _, bench := range []string{"fft", "blackscholes"} {
		wg.Add(1)
		go func(bench string) {
			defer wg.Done()
			c, err := s.CompareParallel(bench, 1)
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			comparisons[bench] = c
			mu.Unlock()
		}(bench)
	}
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
}

// TestParallelOptionMatchesSequential pins that Options.Parallel is
// purely a scheduling choice: Compare on a parallel suite produces
// deeply equal results to a sequential one.
func TestParallelOptionMatchesSequential(t *testing.T) {
	build := func(parallel bool) *Suite {
		s := NewSuite(topology.NewMesh(4, 4), Options{Horizon: 4000, Seed: 3, Parallel: parallel})
		for _, k := range MLKinds {
			s.SetTrainedModel(k, &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}})
		}
		return s
	}
	seq, err := build(false).Compare("fft", 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := build(true).Compare("fft", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel comparison differs from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}
