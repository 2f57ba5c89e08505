package obs

import (
	"strings"
	"testing"

	"repro/internal/obs/promlint"
)

// testSnapshot builds a synthetic snapshot exercising every rendered
// family: populated histograms, per-router attribution, drift state.
func testSnapshot() *Snapshot {
	var abs, lat, stall Hist
	for i := int64(0); i < 100; i++ {
		abs.Observe(i * ErrScale / 1000) // errors up to 0.1 IBU
		lat.Observe(20 + i%30)
	}
	stall.Observe(6)
	stall.Observe(12)
	s := &Snapshot{
		Run:   1,
		Label: "dozznoc/banded",
		Tick:  20000,

		Epochs:         40,
		Gatings:        12,
		Wakes:          11,
		ModeSwitches:   9,
		EpochDecisions: 5120,

		MeanAbsPredErr:       0.0123,
		DecisionsByMode:      [5]int64{4000, 600, 400, 100, 20},
		UnderPredDecisions:   37,
		OverPredDecisions:    81,
		UnderPredStallTicks:  222,
		OverPredStaticWasteJ: 3.5e-7,
		RouterUnderPred:      []int64{0, 5, 0, 32},
		RouterOverPred:       []int64{81, 0, 0, 0},
		DriftEvents:          2,
		LastDriftTick:        18000,
		AbsErrHist:           abs.Snapshot(),
		LatencyHist:          lat.Snapshot(),
		WakeStallHist:        stall.Snapshot(),
	}
	return s
}

// TestRenderMetricsLintsClean renders a fully populated snapshot and
// requires the output to pass the vendored exposition checker and to
// carry the families the acceptance criteria name.
func TestRenderMetricsLintsClean(t *testing.T) {
	out := string(RenderMetrics(testSnapshot()))
	if errs := promlint.Lint([]byte(out)); len(errs) != 0 {
		t.Fatalf("rendered exposition fails lint:\n%v\n---\n%s", errs, out)
	}
	for _, want := range []string{
		`dozznoc_pred_abs_err_ibu_bucket{model="dozznoc",le=`,
		`dozznoc_pred_abs_err_ibu_count{model="dozznoc"} 100`,
		`dozznoc_pred_abs_err_ibu_quantile{model="dozznoc",q="0.99"}`,
		`dozznoc_packet_latency_ticks_bucket`,
		`dozznoc_wake_stall_ticks_count{model="dozznoc"} 2`,
		`dozznoc_underpred_decisions_total{model="dozznoc"} 37`,
		`dozznoc_overpred_static_waste_joules_total{model="dozznoc"} 3.5e-07`,
		`dozznoc_epoch_decisions_by_mode_total{model="dozznoc",mode="M3"} 4000`,
		`dozznoc_router_underpred_total{model="dozznoc",router="3"} 32`,
		`dozznoc_pred_drift_events_total{model="dozznoc"} 2`,
		`dozznoc_pred_drift_active{model="dozznoc"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Routers with zero counts must not appear.
	if strings.Contains(out, `router="2"`) {
		t.Error("zero-count router rendered")
	}
}

// TestRenderMetricsDeterministic: rendering the Deterministic() snapshot
// twice yields identical bytes (the golden /metrics test in internal/sim
// depends on this).
func TestRenderMetricsDeterministic(t *testing.T) {
	s := testSnapshot().Deterministic()
	a, b := RenderMetrics(&s), RenderMetrics(&s)
	if string(a) != string(b) {
		t.Fatal("RenderMetrics is not a pure function of the snapshot")
	}
	if strings.Contains(string(a), "dozznoc_ticks_per_sec{model=\"dozznoc\"} 0\n") == false {
		t.Error("deterministic snapshot should render a zero ticks_per_sec")
	}
}

// TestLintExpositionCatchesBreakage: the vendored checker must reject
// the classes of malformed output it exists to catch.
func TestLintExpositionCatchesBreakage(t *testing.T) {
	cases := map[string]string{
		"bad metric name": "# TYPE 9bad counter\n9bad 1\n",
		"unknown type":    "# TYPE x flavor\nx 1\n",
		"undeclared sample (histogram series without TYPE)": "x_bucket{le=\"1\"} 2\n",
		"unparseable value":    "# TYPE x counter\nx{a=\"b\"} pickle\n",
		"unterminated labels":  "# TYPE x counter\nx{a=\"b\" 1\n",
		"non-monotone buckets": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n",
		"missing +Inf bucket":  "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 9\nh_count 5\n",
		"+Inf != count":        "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 5\n",
		"duplicate TYPE":       "# TYPE x counter\n# TYPE x counter\nx 1\n",
	}
	for name, in := range cases {
		if errs := promlint.Lint([]byte(in)); len(errs) == 0 {
			t.Errorf("%s: lint accepted %q", name, in)
		}
	}
	clean := "# HELP x ok\n# TYPE x counter\nx{a=\"b\"} 1\n"
	if errs := promlint.Lint([]byte(clean)); len(errs) != 0 {
		t.Errorf("lint rejected clean exposition: %v", errs)
	}
}
