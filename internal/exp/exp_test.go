package exp

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/topology"
)

func tinySuite() *core.Suite {
	return core.NewSuite(topology.NewMesh(4, 4), core.Options{Horizon: 6000, Seed: 3})
}

func TestTestBenchNames(t *testing.T) {
	names := TestBenchNames()
	if len(names) != 5 {
		t.Fatalf("%d test benches, want 5", len(names))
	}
	want := map[string]bool{"vips": true, "x264": true, "barnes": true, "fft": true, "lu": true}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected test bench %q", n)
		}
	}
}

func TestTableIRender(t *testing.T) {
	var buf bytes.Buffer
	TableI().Write(&buf)
	out := buf.String()
	for _, want := range []string{"0.9", "1.1", "1.2", "dropout"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTableIIRender(t *testing.T) {
	r := TableII()
	if r.NS[0][5] != 8.8 {
		t.Errorf("PG->1.2V = %g", r.NS[0][5])
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "8.8") {
		t.Error("render missing worst-case entry")
	}
}

func TestTableIIIRender(t *testing.T) {
	r := TableIII()
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "T-Breakeven") {
		t.Error("header missing")
	}
}

func TestTableVRender(t *testing.T) {
	r := TableV()
	if len(r.Rows) != 5 || r.Rows[4].DynamicPJHop != 56.5 {
		t.Fatalf("rows = %+v", r.Rows)
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "56.5") {
		t.Error("render missing M7 dynamic energy")
	}
}

func TestOverheadRender(t *testing.T) {
	o := OverheadTable()
	if math.Abs(o.Reduced.EnergyPJ-7.1) > 1e-9 || math.Abs(o.Original.EnergyPJ-61.1) > 1e-9 {
		t.Fatalf("overhead = %+v", o)
	}
	var buf bytes.Buffer
	o.Write(&buf)
	if !strings.Contains(buf.String(), "7.1pJ") {
		t.Error("render missing reduced energy")
	}
}

func TestFig5(t *testing.T) {
	r := Fig5(10, 0.5, 40)
	if len(r.Wakeup) == 0 || len(r.Switch) == 0 {
		t.Fatal("empty waveforms")
	}
	if math.Abs(r.WakeupNS-8.5) > 0.1 {
		t.Errorf("wakeup settle = %g ns, want 8.5", r.WakeupNS)
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "T-Wakeup") {
		t.Error("render incomplete")
	}
}

func TestFig6(t *testing.T) {
	r := Fig6()
	if r.Stats.MinEfficiency < 0.87 {
		t.Errorf("min efficiency %g", r.Stats.MinEfficiency)
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "baseline") {
		t.Error("render incomplete")
	}
}

// injectTrivialModels installs IBU-passthrough predictors so the
// simulation figures run without the (slow) training pipeline.
func injectTrivialModels(s *core.Suite) {
	for _, k := range core.MLKinds {
		s.SetTrainedModel(k, &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}})
	}
}

func TestFig7Small(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation figure in -short mode")
	}
	s := tinySuite()
	injectTrivialModels(s)
	r, err := Fig7(s)
	if err != nil {
		t.Fatal(err)
	}
	benches := TestBenchNames()
	for _, kind := range core.MLKinds {
		dists := r.Models[kind]
		if len(dists) != 5 {
			t.Fatalf("%v: %d benches", kind, len(dists))
		}
		for i, d := range dists {
			if d.Bench != benches[i] {
				t.Fatalf("%v: distribution %d is %s, want %s", kind, i, d.Bench, benches[i])
			}
			sum := 0.0
			for _, v := range d.Share {
				sum += v
			}
			if sum < 0.99 || sum > 1.01 {
				t.Fatalf("%v/%s: shares sum to %g", kind, d.Bench, sum)
			}
		}
	}
	// The pooled runs match a direct run of the same kind and benchmark.
	res, err := s.RunBenchmark(core.KindDozzNoC, benches[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Models[core.KindDozzNoC][0].Share
	for m := range got {
		if want := float64(res.Policy.ModeDecisions[m]) / float64(res.Policy.EpochDecisions); got[m] != want {
			t.Fatalf("DozzNoC/%s mode %d share %g, direct run %g", benches[0], m, got[m], want)
		}
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "DozzNoC") {
		t.Error("render incomplete")
	}
}

func TestFig8Small(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation figure in -short mode")
	}
	s := tinySuite()
	injectTrivialModels(s)
	r, err := Fig8(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Compressed) != 25 || len(r.Uncompr) != 25 {
		t.Fatalf("rows = %d/%d, want 25/25", len(r.Compressed), len(r.Uncompr))
	}
	for _, row := range r.Uncompr {
		if row.Kind == core.KindBaseline && (row.StaticNorm != 1 || row.DynamicNorm != 1) {
			t.Fatalf("baseline norm = %+v", row)
		}
		if row.Kind == core.KindPG && row.StaticNorm >= 1 {
			t.Errorf("%s: PG static norm %g >= 1", row.Bench, row.StaticNorm)
		}
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "Fig 8(c)") {
		t.Error("render incomplete")
	}
}

func TestFig9Small(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation figure in -short mode")
	}
	s := tinySuite()
	r, err := Fig9(s)
	if err != nil {
		t.Fatal(err)
	}
	// 4 single features + all-5, each over 5 benches.
	if len(r.Rows) != 25 {
		t.Fatalf("%d rows, want 25", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Acc < 0 || row.Acc > 1 {
			t.Fatalf("accuracy %g out of range", row.Acc)
		}
	}
	// IBU must be the strongest single feature (the paper's key finding).
	if r.Average["ibu"] < r.Average["reqs_sent"] && r.Average["ibu"] < r.Average["off_time"] {
		t.Errorf("ibu average %.3f not dominant: %+v", r.Average["ibu"], r.Average)
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "all-5") {
		t.Error("render incomplete")
	}
}

func TestHeadlineSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation figure in -short mode")
	}
	s := tinySuite()
	injectTrivialModels(s)
	r, err := Headline(s, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Mesh) != 5 {
		t.Fatalf("%d headline rows", len(r.Mesh))
	}
	byKind := map[core.ModelKind]HeadlineRow{}
	for _, row := range r.Mesh {
		byKind[row.Kind] = row
	}
	if byKind[core.KindBaseline].StaticSavings != 0 {
		t.Error("baseline saves nothing by definition")
	}
	if byKind[core.KindPG].StaticSavings <= 0 {
		t.Error("PG must save static energy")
	}
	if byKind[core.KindDozzNoC].StaticSavings <= byKind[core.KindLEAD].StaticSavings {
		t.Error("DozzNoC must save more static than LEAD")
	}
	if byKind[core.KindLEAD].DynamicSavings <= 0 {
		t.Error("LEAD must save dynamic energy")
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "static-sav") {
		t.Error("render incomplete")
	}
}

func TestEpochSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("epoch sweep in -short mode")
	}
	factory := func(ep int64) *core.Suite {
		s := core.NewSuite(topology.NewMesh(4, 4), core.Options{Horizon: 6000, Seed: 3, EpochTicks: ep})
		injectTrivialModels(s)
		return s
	}
	r, err := RunEpochSweep(factory, "fft", 2, []int64{250, 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.StaticSavings <= 0 {
			t.Errorf("epoch %d: no static savings", row.EpochTicks)
		}
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "Epoch-size sweep") {
		t.Error("render incomplete")
	}
}

func TestTableVDerived(t *testing.T) {
	r := TableVDerived()
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if math.Abs(row.DerivedDyn-row.TableDynamic)/row.TableDynamic > 0.005 {
			t.Errorf("%.1fV: derived dynamic %.2f vs table %.1f", row.Volts, row.DerivedDyn, row.TableDynamic)
		}
		if math.Abs(row.DerivedStat-row.TableStatic)/row.TableStatic > 0.015 {
			t.Errorf("%.1fV: derived static %.4f vs table %.3f", row.Volts, row.DerivedStat, row.TableStatic)
		}
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "mini-DSENT") {
		t.Error("render incomplete")
	}
}

func TestCSVExports(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation CSVs in -short mode")
	}
	s := tinySuite()
	injectTrivialModels(s)
	h, err := Headline(s, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 { // header + 5 models
		t.Fatalf("headline CSV has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "topology,model,") {
		t.Errorf("header = %q", lines[0])
	}

	f7, err := Fig7(s)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f7.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if n := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); n != 16 { // header + 3 models x 5 benches
		t.Fatalf("fig7 CSV has %d lines", n)
	}
}
