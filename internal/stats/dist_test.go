package stats

import (
	"math"
	"testing"
)

func TestMeanCI95(t *testing.T) {
	m, ci := MeanCI95([]float64{10, 10, 10})
	if m != 10 || ci != 0 {
		t.Errorf("constant sample: mean=%v ci=%v, want 10, 0", m, ci)
	}
	m, ci = MeanCI95([]float64{8, 10, 12})
	if m != 10 {
		t.Errorf("mean = %v, want 10", m)
	}
	// s = 2, n = 3, df = 2 -> t = 4.303, margin = 4.303*2/sqrt(3)
	want := 4.303 * 2 / math.Sqrt(3)
	if math.Abs(ci-want) > 1e-9 {
		t.Errorf("ci = %v, want %v", ci, want)
	}
	if m, ci := MeanCI95(nil); m != 0 || ci != 0 {
		t.Errorf("empty sample: %v, %v", m, ci)
	}
	if _, ci := MeanCI95([]float64{5}); ci != 0 {
		t.Errorf("single observation has a CI: %v", ci)
	}
}

// TestMannWhitneyExactSeparated pins the exact small-sample distribution
// against hand-computed values: complete separation of n=m=3 gives U=0
// and two-sided p = 2/C(6,3) = 0.1; n=m=4 gives p = 2/C(8,4) = 2/70.
func TestMannWhitneyExactSeparated(t *testing.T) {
	r := MannWhitneyUTest([]float64{1, 2, 3}, []float64{4, 5, 6})
	if !r.Exact || r.U != 0 {
		t.Fatalf("n=3: exact=%v U=%v, want exact U=0", r.Exact, r.U)
	}
	if math.Abs(r.P-0.1) > 1e-12 {
		t.Errorf("n=3 separated p = %v, want 0.1", r.P)
	}

	r = MannWhitneyUTest([]float64{1, 2, 3, 4}, []float64{5, 6, 7, 8})
	if want := 2.0 / 70.0; !r.Exact || math.Abs(r.P-want) > 1e-12 {
		t.Errorf("n=4 separated p = %v (exact=%v), want %v", r.P, r.Exact, want)
	}
	// The direction cannot matter.
	r2 := MannWhitneyUTest([]float64{5, 6, 7, 8}, []float64{1, 2, 3, 4})
	if r2.P != r.P || r2.U != r.U {
		t.Errorf("asymmetric: %+v vs %+v", r, r2)
	}
}

// TestMannWhitneyExactInterleaved: perfectly interleaved samples are
// indistinguishable — U sits at its central value and p is large.
func TestMannWhitneyExactInterleaved(t *testing.T) {
	r := MannWhitneyUTest([]float64{1, 3, 5, 7}, []float64{2, 4, 6, 8})
	if r.P < 0.5 {
		t.Errorf("interleaved samples significant: p = %v", r.P)
	}
	if r.P > 1 {
		t.Errorf("p > 1: %v", r.P)
	}
}

func TestMannWhitneyDegenerate(t *testing.T) {
	if r := MannWhitneyUTest(nil, []float64{1, 2}); r.P != 1 {
		t.Errorf("empty side p = %v, want 1", r.P)
	}
	// All observations identical: ties drop the exact path and the
	// variance collapses; no difference is detectable.
	if r := MannWhitneyUTest([]float64{5, 5, 5}, []float64{5, 5}); r.P != 1 || r.Exact {
		t.Errorf("all-tied p = %v exact=%v, want 1, false", r.P, r.Exact)
	}
}

// TestMannWhitneyApproxMatchesExact: the normal approximation (forced via
// a tie) must land near the exact answer for a clearly separated sample.
func TestMannWhitneyApproxMatchesExact(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := []float64{11, 12, 13, 14, 15, 16, 17, 18}
	exact := MannWhitneyUTest(x, y)
	if !exact.Exact {
		t.Fatal("expected the exact path")
	}
	// Introduce a tie within x only; the rank structure across sides is
	// unchanged, but the test must switch to the approximation.
	x2 := []float64{1, 2, 3, 4, 5, 6, 7, 7}
	approx := MannWhitneyUTest(x2, y)
	if approx.Exact {
		t.Fatal("tied sample took the exact path")
	}
	if approx.P > Alpha || exact.P > Alpha {
		t.Errorf("separated n=8 samples not significant: exact=%v approx=%v", exact.P, approx.P)
	}
}

// TestMannWhitneyLargeSamples exercises the approximation path on sample
// sizes beyond the exact cutoff.
func TestMannWhitneyLargeSamples(t *testing.T) {
	var x, y []float64
	for i := 0; i < 20; i++ {
		x = append(x, float64(i))
		y = append(y, float64(i)+30)
	}
	r := MannWhitneyUTest(x, y)
	if r.Exact {
		t.Fatal("n=20 took the exact path")
	}
	if r.P > 1e-6 {
		t.Errorf("fully separated n=20 p = %v", r.P)
	}
}

func TestCompareSamples(t *testing.T) {
	old := []float64{100, 101, 102, 99}
	new := []float64{80, 81, 82, 79}
	d := CompareSamples(old, new)
	if !d.Significant {
		t.Fatalf("clear -20%% shift insignificant: p=%v", d.U.P)
	}
	if math.Abs(d.Pct - -20.0) > 0.5 {
		t.Errorf("Pct = %v, want about -20", d.Pct)
	}
	if s := d.PctString(); s != "-19.90%" {
		t.Errorf("PctString = %q", s)
	}

	noisy := CompareSamples([]float64{100, 90}, []float64{95, 96})
	if noisy.Significant {
		t.Errorf("two-observation noise significant: p=%v", noisy.U.P)
	}
	if s := noisy.PctString(); s != "~" {
		t.Errorf("insignificant PctString = %q, want ~", s)
	}

	zero := CompareSamples([]float64{0, 0}, []float64{1, 2})
	if zero.Pct != 0 {
		t.Errorf("zero-mean old Pct = %v, want 0", zero.Pct)
	}
}

func TestPaired(t *testing.T) {
	base := []float64{100, 200, 100, 200, 100}
	change := []float64{110, 220, 99, 240, 105, 999} // the unpaired tail is ignored
	r := Paired(base, change)
	if r.Pairs != 5 || r.Wins != 1 {
		t.Fatalf("pairs=%d wins=%d, want 5 and 1", r.Pairs, r.Wins)
	}
	// Ratios sorted: 0.99 1.05 1.10 1.10 1.20.
	if math.Abs(r.Median-1.10) > 1e-12 || math.Abs(r.Q1-1.05) > 1e-12 || math.Abs(r.Q3-1.10) > 1e-12 {
		t.Errorf("median=%v q1=%v q3=%v, want 1.10 1.05 1.10", r.Median, r.Q1, r.Q3)
	}
	if !r.Regressed(5) || r.Regressed(10) {
		t.Errorf("Regressed(5)=%v Regressed(10)=%v at median 1.10", r.Regressed(5), r.Regressed(10))
	}
	// The level shift between pairs cancels in the ratio but swamps the
	// unpaired test.
	if r.P < Alpha {
		t.Errorf("interleaved levels read significant: p=%v", r.P)
	}

	even := Paired([]float64{1, 1, 1, 1}, []float64{1, 2, 3, 4})
	if even.Median != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", even.Median)
	}
	if z := Paired([]float64{0}, []float64{1}); z.Pairs != 0 || z.Median != 0 || z.Regressed(0) {
		t.Errorf("zero base: %+v", z)
	}
}
