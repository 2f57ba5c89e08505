package stats

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	v := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(v, 50); got != 5 {
		t.Errorf("p50 = %d, want 5", got)
	}
	if got := Percentile(v, 100); got != 10 {
		t.Errorf("p100 = %d, want 10", got)
	}
	if got := Percentile(v, 0); got != 1 {
		t.Errorf("p0 = %d, want 1", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	// Clamping.
	if Percentile(v, -5) != 1 || Percentile(v, 200) != 10 {
		t.Error("percentile clamping wrong")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	v := []int64{3, 1, 2}
	Percentile(v, 50)
	if v[0] != 3 || v[1] != 1 || v[2] != 2 {
		t.Fatal("input slice mutated")
	}
}

func TestPercentileOrderingProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]int64, len(raw))
		for i, x := range raw {
			v[i] = int64(x)
		}
		return Percentile(v, 50) <= Percentile(v, 95) &&
			Percentile(v, 95) <= Percentile(v, 99) &&
			Percentile(v, 99) <= Percentile(v, 100)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]int64{10, 20, 30, 40})
	if s.Count != 4 || s.Mean != 25 || s.Max != 40 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P50 != 20 {
		t.Errorf("p50 = %d", s.P50)
	}
	empty := Summarize(nil)
	if empty.Count != 0 || empty.Mean != 0 {
		t.Error("empty summary wrong")
	}
}

// TestSummarizeMatchesPercentile: Summarize sorts once and reads three
// ranks, which must agree with three independent Percentile calls on any
// population — single values, heavy duplicates and wide spreads alike.
func TestSummarizeMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(300)
		if i%4 == 0 {
			n = 1
		}
		spread := int64(1) << uint(rng.Intn(40)) // 1 => every value equal
		v := make([]int64, n)
		for j := range v {
			v[j] = rng.Int63n(spread) - spread/2
		}
		orig := append([]int64(nil), v...)
		s := Summarize(v)
		if s.P50 != Percentile(v, 50) || s.P95 != Percentile(v, 95) || s.P99 != Percentile(v, 99) {
			t.Fatalf("population %v: summary p50/p95/p99 = %d/%d/%d, Percentile gives %d/%d/%d",
				v, s.P50, s.P95, s.P99, Percentile(v, 50), Percentile(v, 95), Percentile(v, 99))
		}
		if !slices.Equal(v, orig) {
			t.Fatal("Summarize reordered its input")
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(4, 10)
	for _, v := range []int64{0, 5, 15, 35, 39, 40, 1000, -3} {
		h.Add(v)
	}
	if h.Counts[0] != 3 { // 0, 5, -3 (clamped)
		t.Errorf("bucket 0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 1 || h.Counts[3] != 2 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.Overflow != 2 {
		t.Errorf("overflow = %d", h.Overflow)
	}
	if h.Total() != 8 {
		t.Errorf("total = %d", h.Total())
	}
}

func TestHistogramBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad histogram accepted")
		}
	}()
	NewHistogram(0, 10)
}

func TestSeriesCSV(t *testing.T) {
	s := &Series{EpochTicks: 500}
	s.Add(EpochSample{Tick: 500, AvgIBU: 0.1, OffRouters: 3, ModeRouters: [5]int{1, 0, 0, 0, 12}, FlitsDelivered: 42, StaticJ: 1e-6})
	s.Add(EpochSample{Tick: 1000, AvgIBU: 0.2})
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d CSV lines, want header + 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], "tick,avg_ibu,off") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "500,0.1,3,") {
		t.Errorf("row = %q", lines[1])
	}
}
