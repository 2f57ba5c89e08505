package exp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mcsim"
	"repro/internal/topology"
)

// ablationSuite is a 4x4 suite at the default seed whose traces span
// horizon ticks.
func ablationSuite(horizon int64) *core.Suite {
	return core.NewSuite(topology.NewMesh(4, 4), core.Options{Horizon: horizon})
}

func TestTIdleSweep(t *testing.T) {
	r, err := TIdleSweep(ablationSuite(6000), "fft", []int{2, 8, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// A larger T-Idle gates less often.
	if r.Rows[2].Gatings > r.Rows[0].Gatings {
		t.Errorf("T-Idle 64 gated more than T-Idle 2: %d vs %d",
			r.Rows[2].Gatings, r.Rows[0].Gatings)
	}
	// A larger T-Idle meets breakeven more often (only deep idles gate).
	if r.Rows[0].Gatings > 0 && r.Rows[2].Gatings > 0 &&
		r.Rows[2].BreakevenFrac < r.Rows[0].BreakevenFrac {
		t.Errorf("breakeven fraction should improve with T-Idle: %g vs %g",
			r.Rows[2].BreakevenFrac, r.Rows[0].BreakevenFrac)
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "T-Idle sweep") {
		t.Error("render incomplete")
	}
}

func TestTIdleSweepUnknownBench(t *testing.T) {
	if _, err := TIdleSweep(ablationSuite(1000), "bogus", []int{4}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestPunchSweep(t *testing.T) {
	r, err := PunchSweep(ablationSuite(6000), "fft", []int{0, 1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// Punching the whole path must not increase latency versus punching
	// nothing at injection time.
	none, full := r.Rows[0], r.Rows[2]
	if full.LatencyRatio > none.LatencyRatio*1.05 {
		t.Errorf("full-path punch latency ratio %g vs none %g",
			full.LatencyRatio, none.LatencyRatio)
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "punch horizon") {
		t.Error("render incomplete")
	}
}

func TestFeatureCountAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset harvesting in -short mode")
	}
	s := tinySuite()
	r, err := FeatureCountAblation(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// The 5-feature label must cost 7.1 pJ (paper's overhead claim).
	last := r.Rows[len(r.Rows)-1]
	if last.Features != 5 || last.EnergyPJ != 7.1 {
		t.Fatalf("all-5 row = %+v", last)
	}
	// Accuracy must not collapse when features are added.
	if last.TestAcc < r.Rows[0].TestAcc-0.1 {
		t.Errorf("all-5 accuracy %.3f far below ibu-only %.3f", last.TestAcc, r.Rows[0].TestAcc)
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "all-5") {
		t.Error("render incomplete")
	}
}

func TestFeatureSet41(t *testing.T) {
	if testing.Short() {
		t.Skip("extended training in -short mode")
	}
	s := tinySuite()
	r, err := FeatureSet41(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The paper's claim: the reduced set loses almost nothing. Both
		// variants must at least save static energy; ratios stay sane.
		if row.Static5 <= 0 || row.Static41 <= 0 {
			t.Errorf("%s: no static savings (5: %g, 41: %g)", row.Bench, row.Static5, row.Static41)
		}
		if row.TputRatio < 0.7 || row.TputRatio > 1.4 {
			t.Errorf("%s: throughput ratio %g far from parity", row.Bench, row.TputRatio)
		}
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "DozzNoC-41") {
		t.Error("render incomplete")
	}
}

func TestClosedLoopSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("closed loop in -short mode")
	}
	s := ablationSuite(0)
	params := mcsim.DefaultSystem(s.Topo)
	params.Core.Instructions = 20_000
	r, err := ClosedLoop(s, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	if r.Rows[0].Slowdown != 1 {
		t.Fatal("baseline slowdown must be 1")
	}
	for _, row := range r.Rows[1:] {
		if row.Slowdown < 1 {
			t.Errorf("%s finished faster than the baseline", row.Model)
		}
	}
	// DozzNoC saves both energies even in closed loop.
	for _, row := range r.Rows {
		if row.Model == "DozzNoC" && (row.StaticSavings <= 0 || row.DynamicSavings <= 0) {
			t.Error("closed-loop DozzNoC did not save both energies")
		}
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "Closed-loop") {
		t.Error("render incomplete")
	}
}

func TestGlobalDVFS(t *testing.T) {
	r, err := GlobalDVFS(ablationSuite(8000), []string{"fft", "lu"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Global coordination (network max) must save no more dynamic
		// energy than per-router selection.
		if row.GlobalDynamic > row.LocalDynamic+0.01 {
			t.Errorf("%s: global dynamic savings %.3f beat local %.3f",
				row.Bench, row.GlobalDynamic, row.LocalDynamic)
		}
		if row.LocalDynamic <= 0 {
			t.Errorf("%s: local DVFS saved nothing", row.Bench)
		}
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "globally coordinated") {
		t.Error("render incomplete")
	}
}

func TestClosedLoopSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop sweep in -short mode")
	}
	r, err := ClosedLoopSweep(ablationSuite(0), []string{"fft", "lu"}, 15_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	if r.Rows[0].Model != "Baseline" || r.Rows[0].AvgSlowdown != 1 {
		t.Fatalf("baseline row = %+v", r.Rows[0])
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "sweep averages") {
		t.Error("render incomplete")
	}
}
