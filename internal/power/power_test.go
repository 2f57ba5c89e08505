package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/timing"
)

func TestModeNumbering(t *testing.T) {
	// The paper numbers inactive=1, wakeup=2, active=3..7.
	if Inactive != 1 || Wakeup != 2 || M3 != 3 || M7 != 7 {
		t.Fatal("mode numbering diverges from the paper")
	}
	if NumActiveModes != 5 {
		t.Fatalf("NumActiveModes = %d, want 5", NumActiveModes)
	}
}

func TestIsActive(t *testing.T) {
	for m := M3; m <= M7; m++ {
		if !m.IsActive() {
			t.Errorf("%v should be active", m)
		}
	}
	if Inactive.IsActive() || Wakeup.IsActive() {
		t.Error("inactive/wakeup should not be active")
	}
}

func TestIndexRoundTrip(t *testing.T) {
	for i := 0; i < NumActiveModes; i++ {
		if ActiveMode(i).Index() != i {
			t.Errorf("ActiveMode(%d).Index() != %d", i, i)
		}
	}
}

// wantPanic runs f and requires it to panic with exactly msg.
func wantPanic(t *testing.T, msg string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r != msg {
			t.Fatalf("panic %v, want %q", r, msg)
		}
	}()
	f()
}

func TestIndexPanicsOnInactive(t *testing.T) {
	wantPanic(t, "power: Index of non-active mode 1", func() { Inactive.Index() })
	wantPanic(t, "power: Index of non-active mode 8", func() { new(Meter).ResidencyTicks(8) })
	wantPanic(t, "power: active-mode index 5 out of range", func() { ActiveMode(NumActiveModes) })
}

func TestTableVValues(t *testing.T) {
	// Table V verbatim.
	wantVolts := []float64{0.8, 0.9, 1.0, 1.1, 1.2}
	wantFreq := []int{1000, 1500, 1800, 2000, 2250}
	wantStatic := []float64{0.036, 0.041, 0.045, 0.050, 0.054}
	wantDyn := []float64{25.1, 31.8, 39.2, 47.5, 56.5}
	for i, p := range Table {
		if p.Volts != wantVolts[i] || p.FreqMHz != wantFreq[i] {
			t.Errorf("row %d V/F = %g/%d", i, p.Volts, p.FreqMHz)
		}
		if p.StaticWatts != wantStatic[i] {
			t.Errorf("row %d static = %g", i, p.StaticWatts)
		}
		if p.DynamicPJHop != wantDyn[i] {
			t.Errorf("row %d dynamic = %g", i, p.DynamicPJHop)
		}
	}
}

func TestTableMonotone(t *testing.T) {
	for i := 1; i < NumActiveModes; i++ {
		if Table[i].StaticWatts <= Table[i-1].StaticWatts {
			t.Error("static power must increase with voltage")
		}
		if Table[i].DynamicPJHop <= Table[i-1].DynamicPJHop {
			t.Error("dynamic energy must increase with voltage")
		}
		if Table[i].FreqMHz <= Table[i-1].FreqMHz {
			t.Error("frequency must increase with voltage")
		}
	}
}

func TestStaticPerCycleColumn(t *testing.T) {
	// The normalized column is static relative to M7.
	for _, p := range Table {
		want := p.StaticWatts / Table[NumActiveModes-1].StaticWatts
		if math.Abs(p.StaticPerCyc-want) > 0.02 {
			t.Errorf("mode %v: static/cycle %g vs ratio %g", p.Mode, p.StaticPerCyc, want)
		}
	}
}

func TestStaticWatts(t *testing.T) {
	if StaticWatts(Inactive) != 0 {
		t.Error("inactive must leak nothing")
	}
	if StaticWatts(Wakeup) != Table[NumActiveModes-1].StaticWatts {
		t.Error("wakeup default bill must be the highest mode")
	}
	if StaticWatts(M3) != 0.036 {
		t.Errorf("M3 static = %g", StaticWatts(M3))
	}
	if StaticWattsWaking(M4) != 0.041 {
		t.Errorf("waking into M4 = %g", StaticWattsWaking(M4))
	}
	if StaticWattsWaking(Inactive) != 0.054 {
		t.Error("waking into a non-active target bills worst case")
	}
}

func TestDynamicPanicsWhenOff(t *testing.T) {
	wantPanic(t, "power: dynamic hop energy in non-active mode inactive", func() { DynamicPJPerHop(Inactive) })
}

func TestModeForVolts(t *testing.T) {
	for _, p := range Table {
		m, ok := ModeForVolts(p.Volts)
		if !ok || m != p.Mode {
			t.Errorf("ModeForVolts(%g) = %v, %v", p.Volts, m, ok)
		}
	}
	if _, ok := ModeForVolts(0.85); ok {
		t.Error("0.85V should not match")
	}
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{Inactive: "inactive", Wakeup: "wakeup", M3: "M3", M7: "M7"}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestMeterStatic(t *testing.T) {
	// One second's worth of base ticks at M7 bills 0.054 J.
	secTicks := int64(timing.BaseFreqMHz) * 1_000_000
	var m Meter
	m.AddStatic(M7, 0, secTicks)
	if got := m.StaticJoules(); math.Abs(got-0.054) > 1e-12 {
		t.Fatalf("1 s at M7 = %g J, want 0.054", got)
	}
	m.AddStatic(Inactive, 0, secTicks)
	if got := m.StaticJoules(); math.Abs(got-0.054) > 1e-12 {
		t.Fatal("inactive second must add nothing")
	}
	m.AddStatic(Wakeup, M3, secTicks)
	if got := m.StaticJoules(); math.Abs(got-0.090) > 1e-12 {
		t.Fatalf("wakeup into M3 must bill M3 power, total %g", got)
	}
}

func TestMeterBatchedStaticIsBitIdentical(t *testing.T) {
	// The fast-forward invariant: billing n ticks at once equals n
	// single-tick bills exactly, not just approximately.
	var one, batch Meter
	for i := 0; i < 12345; i++ {
		one.AddStatic(M5, 0, 1)
	}
	for i := 0; i < 678; i++ {
		one.AddStatic(Wakeup, M6, 1)
	}
	batch.AddStatic(M5, 0, 12345)
	batch.AddStatic(Wakeup, M6, 678)
	if one.StaticJoules() != batch.StaticJoules() {
		t.Fatalf("batched %v != per-tick %v", batch.StaticJoules(), one.StaticJoules())
	}
	if one.ResidencyTicks(M5) != batch.ResidencyTicks(M5) || one.ResidencyTicks(Wakeup) != batch.ResidencyTicks(Wakeup) {
		t.Fatal("residency counters diverge")
	}
}

func TestMeterDynamic(t *testing.T) {
	var m Meter
	m.AddHop(M3)
	m.AddHop(M7)
	want := (25.1 + 56.5) * 1e-12
	if got := m.DynamicJoules(); math.Abs(got-want) > 1e-18 {
		t.Fatalf("two hops = %g J, want %g", got, want)
	}
	if m.Hops() != 2 {
		t.Fatalf("hops = %d", m.Hops())
	}
	if math.Abs(m.TotalJoules()-m.DynamicJoules()) > 1e-18 {
		t.Error("total should equal dynamic when no static billed")
	}
}

func TestMeterResidency(t *testing.T) {
	var m Meter
	for i := 0; i < 10; i++ {
		m.AddStatic(Inactive, 0, 1)
	}
	for i := 0; i < 5; i++ {
		m.AddStatic(M4, 0, 1)
	}
	m.AddStatic(Wakeup, M4, 1)
	if m.OffTicks() != 10 {
		t.Errorf("off ticks = %d, want 10", m.OffTicks())
	}
	if m.ResidencyTicks(M4) != 5 {
		t.Errorf("M4 ticks = %d, want 5", m.ResidencyTicks(M4))
	}
	if m.ResidencyTicks(Wakeup) != 1 {
		t.Errorf("wakeup ticks = %d, want 1", m.ResidencyTicks(Wakeup))
	}
}

func TestMeterAddAndReset(t *testing.T) {
	var a, b Meter
	a.AddHop(M3)
	a.AddStatic(M7, 0, 1)
	b.AddHop(M7)
	b.AddStatic(Inactive, 0, 1)
	a.Add(&b)
	if a.Hops() != 2 {
		t.Errorf("merged hops = %d", a.Hops())
	}
	if a.ResidencyTicks(Inactive) != 1 || a.ResidencyTicks(M7) != 1 {
		t.Error("merged residency wrong")
	}
	a.Reset()
	if a.Hops() != 0 || a.TotalJoules() != 0 {
		t.Error("reset did not clear the meter")
	}
}

func TestMeterEnergyNonNegativeProperty(t *testing.T) {
	f := func(modes []uint8) bool {
		var m Meter
		for _, raw := range modes {
			mode := Mode(1 + int(raw)%7)
			m.AddStatic(mode, M5, 1)
			if mode.IsActive() {
				m.AddHop(mode)
			}
		}
		return m.StaticJoules() >= 0 && m.DynamicJoules() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
