// Prediction-quality layer integration tests: the folded histograms and
// mispredict attribution must be identical to a serial run's for every
// paper model, the /metrics exposition for a fixed trace is pinned as golden
// bytes (and must satisfy the vendored exposition checker, live over
// HTTP too), and the Page-Hinkley drift detector must fire on a
// phase-shifting workload while staying silent on a stationary one.
package sim_test

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/flit"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestObsHistFoldMatchesSerial: for all five paper models, the histograms
// and mispredict attribution of 2- and 4-shard runs are identical to the
// serial run's. WakeStall is derived from the wake counts the shards
// accrue in the controller's stats lanes; the stall charge reads the
// meters the shards bill.
func TestObsHistFoldMatchesSerial(t *testing.T) {
	topo := topology.NewMesh(8, 16)
	tr := bandedTrace(topo, 20_000)
	run := func(mk func() policy.Spec, shards int) obs.Snapshot {
		t.Helper()
		observer := obs.New()
		_, err := sim.Run(sim.Config{
			Topo:           topo,
			Spec:           mk(),
			Trace:          tr,
			Shards:         shards,
			ShardMinActive: -1,
			Obs:            observer,
		})
		if err != nil {
			t.Fatal(err)
		}
		return observer.Metrics.Snapshot()
	}
	// The serial values pin the non-zero mispredict stall charge and the
	// wake-stall histogram (the metrics golden carries neither); the
	// models that never gate have neither.
	type stallPin struct{ underPredStall, wakeCount, wakeSum int64 }
	pins := map[string]stallPin{
		"PG":       {0, 13221, 237978},
		"DozzNoC":  {357, 5891, 121500},
		"ML+TURBO": {399, 5975, 123264},
	}
	for _, mk := range sessionSpecMakers(topo.NumRouters()) {
		name := mk().Name
		serial := run(mk, 1)
		if serial.AbsErrHist.Count == 0 {
			t.Errorf("%s: serial run observed no prediction errors", name)
		}
		if pin, got := pins[name], (stallPin{serial.UnderPredStallTicks, serial.WakeStallHist.Count, serial.WakeStallHist.Sum}); got != pin {
			t.Errorf("%s: serial UnderPredStallTicks, WakeStallHist Count/Sum = %d, %d/%d; want %d, %d/%d",
				name, got.underPredStall, got.wakeCount, got.wakeSum, pin.underPredStall, pin.wakeCount, pin.wakeSum)
		}
		for _, shards := range []int{2, 4} {
			sharded := run(mk, shards)
			if !reflect.DeepEqual(sharded.AbsErrHist, serial.AbsErrHist) {
				t.Errorf("%s shards=%d: AbsErr histogram differs:\nsharded: %+v\nserial:  %+v",
					name, shards, sharded.AbsErrHist, serial.AbsErrHist)
			}
			if !reflect.DeepEqual(sharded.LatencyHist, serial.LatencyHist) {
				t.Errorf("%s shards=%d: Latency histogram differs:\nsharded: %+v\nserial:  %+v",
					name, shards, sharded.LatencyHist, serial.LatencyHist)
			}
			if !reflect.DeepEqual(sharded.WakeStallHist, serial.WakeStallHist) {
				t.Errorf("%s shards=%d: WakeStall histogram differs:\nsharded: %+v\nserial:  %+v",
					name, shards, sharded.WakeStallHist, serial.WakeStallHist)
			}
			if sharded.UnderPredDecisions != serial.UnderPredDecisions ||
				sharded.OverPredDecisions != serial.OverPredDecisions ||
				sharded.UnderPredStallTicks != serial.UnderPredStallTicks ||
				sharded.OverPredStaticWasteJ != serial.OverPredStaticWasteJ ||
				sharded.DecisionsByMode != serial.DecisionsByMode {
				t.Errorf("%s shards=%d: attribution counters differ:\nsharded: %+v\nserial:  %+v",
					name, shards, sharded, serial)
			}
			if !reflect.DeepEqual(sharded.RouterUnderPred, serial.RouterUnderPred) ||
				!reflect.DeepEqual(sharded.RouterOverPred, serial.RouterOverPred) {
				t.Errorf("%s shards=%d: per-router attribution differs", name, shards)
			}
		}
	}
}

// fixedMetricsSnapshot runs the same fixed trace the series golden uses
// and returns the deterministic snapshot.
func fixedMetricsSnapshot(t *testing.T) obs.Snapshot {
	t.Helper()
	topo := topology.NewMesh(4, 4)
	tr := traffic.Synthetic(topo, traffic.UniformRandom, 0.01, 5000, 2)
	observer := obs.New()
	if _, err := sim.Run(sim.Config{
		Topo:  topo,
		Spec:  policy.DozzNoC(policy.ReactiveSelector{}),
		Trace: tr,
		Obs:   observer,
	}); err != nil {
		t.Fatal(err)
	}
	return observer.Metrics.Snapshot().Deterministic()
}

// TestMetricsGoldenExposition pins the /metrics bytes for a fixed trace:
// the rendered deterministic snapshot must match the golden file exactly
// (regenerate with -update) and pass the vendored exposition checker.
func TestMetricsGoldenExposition(t *testing.T) {
	snap := fixedMetricsSnapshot(t)
	got := obs.RenderMetrics(&snap)
	if errs := obs.LintExposition(got); len(errs) != 0 {
		t.Fatalf("exposition fails lint: %v", errs)
	}
	path := filepath.Join("testdata", "metrics_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("/metrics exposition differs from golden (rerun with -update if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMetricsEndpointLint scrapes /metrics from a live server after an
// observed run and validates the bytes with the vendored checker — the
// `make metrics-lint` gate.
func TestMetricsEndpointLint(t *testing.T) {
	fixedMetricsSnapshot(t) // folds publish the live snapshot as a side effect
	srv, err := obs.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, err %v", resp.StatusCode, err)
	}
	if len(body) == 0 {
		t.Fatal("live /metrics is empty after an observed run")
	}
	if errs := obs.LintExposition(body); len(errs) != 0 {
		t.Fatalf("live /metrics fails exposition lint: %v\n%s", errs, body)
	}
	for _, want := range []string{"dozznoc_pred_abs_err_ibu_bucket", "dozznoc_underpred_decisions_total"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("live /metrics missing %q", want)
		}
	}
}

// constPredictor is a frozen model: it always predicts the IBU it was
// trained on, the stand-in for offline Ridge weights gone stale.
type constPredictor float64

func (c constPredictor) Predict([]float64) float64 { return float64(c) }

// phaseTrace builds a two-phase trace on topo: light row-local traffic
// for the first half of the horizon, then a heavy four-corner hotspot
// burst for the second half. stationary=true extends phase one over the
// whole horizon instead.
func phaseTrace(topo topology.Topology, horizon int64, stationary bool) *traffic.Trace {
	tr := &traffic.Trace{Name: "phase-shift", Cores: topo.NumCores(), Horizon: horizon}
	if stationary {
		tr.Name = "stationary"
	}
	width, rows := topo.Width(), topo.Height()
	core := func(x, y int) int { return topo.CoreAt(topo.RouterAt(x, y), 0) }
	shift := horizon / 2
	hot := []int{core(0, 0), core(width-1, 0), core(0, rows-1), core(width-1, rows-1)}
	for t, i := int64(0), 0; t < horizon; t, i = t+4, i+1 {
		if stationary || t < shift {
			// Light, stationary: one row-local packet every 4 ticks.
			row := i % rows
			tr.Entries = append(tr.Entries, traffic.Entry{
				Time: t, Src: core(i%width, row), Dst: core((i+1)%width, row), Kind: flit.Request,
			})
			continue
		}
		// Heavy hotspot: every tick in this window, all corners converge.
		for dt := int64(0); dt < 4; dt++ {
			for j, h := range hot {
				tr.Entries = append(tr.Entries, traffic.Entry{
					Time: t + dt, Src: core((i+j)%width, (i+j)%rows), Dst: h, Kind: flit.Request,
				})
			}
		}
	}
	return tr
}

// driftRun executes one frozen-weights DVFS+ML run and returns the drift
// fire count.
func driftRun(t *testing.T, stationary bool) int64 {
	t.Helper()
	topo := topology.NewMesh(4, 4)
	observer := obs.New()
	observer.Metrics.SetDrift(obs.DriftConfig{}) // paper defaults
	spec := policy.DVFSML(policy.ProactiveSelector{Model: constPredictor(0.01), ModelName: "frozen"})
	res, err := sim.Run(sim.Config{
		Topo:  topo,
		Spec:  spec,
		Trace: phaseTrace(topo, 40_000, stationary),
		Obs:   observer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PredDriftEvents != observer.Metrics.DriftEvents() {
		t.Fatalf("Result.PredDriftEvents %d != obs %d", res.PredDriftEvents, observer.Metrics.DriftEvents())
	}
	return res.PredDriftEvents
}

// TestDriftSmoke is the make-check drift gate: a frozen-weights model
// must trip the Page-Hinkley detector when the workload shifts from the
// regime it was "trained" on to a heavy hotspot phase, and must stay
// silent when the light phase runs stationary for the whole horizon.
func TestDriftSmoke(t *testing.T) {
	if n := driftRun(t, true); n != 0 {
		t.Errorf("drift detector fired %d times on the stationary trace", n)
	}
	if n := driftRun(t, false); n == 0 {
		t.Error("drift detector stayed silent across the banded->hotspot phase shift")
	}
}
