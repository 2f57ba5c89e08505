// Package timing provides the simulation time base and per-router clock
// domains for multi-frequency NoC simulation.
//
// The simulator advances in "base ticks", one per cycle of the fastest DVFS
// clock (2.25 GHz, i.e. 444.44 ps). A router running at a lower frequency
// fires a local cycle on a rational subset of base ticks using an exact
// integer (Bresenham-style) accumulator: acc += fMHz each tick; when acc
// reaches BaseFreqMHz a local cycle fires and BaseFreqMHz is subtracted.
// Over any window of N base ticks the domain fires exactly
// floor(N*f/fmax)±1 local cycles, with zero floating-point drift.
package timing

import "fmt"

// BaseFreqMHz is the frequency of the base simulation clock in MHz.
// It equals the fastest DVFS mode (mode 7, 1.2 V / 2.25 GHz).
const BaseFreqMHz = 2250

// BaseTickPS is the duration of one base tick in picoseconds, rounded to
// the nearest integer (1e6/2250 = 444.44 ps). Use TickSeconds for energy
// integration, which is exact.
const BaseTickPS = 444

// TickSeconds is the exact duration of one base tick in seconds.
const TickSeconds = 1.0 / (BaseFreqMHz * 1e6)

// Tick is an absolute simulation time in base ticks.
type Tick int64

// Seconds converts a tick count to seconds.
func (t Tick) Seconds() float64 { return float64(t) * TickSeconds }

// Nanoseconds converts a tick count to nanoseconds.
func (t Tick) Nanoseconds() float64 { return float64(t) * TickSeconds * 1e9 }

// TicksFromNS returns the smallest number of base ticks spanning ns
// nanoseconds. It is used to convert regulator latencies (specified in ns)
// to simulation time.
func TicksFromNS(ns float64) Tick {
	if ns <= 0 {
		return 0
	}
	t := Tick(ns * 1e-9 / TickSeconds)
	if t.Seconds()*1e9 < ns {
		t++
	}
	return t
}

// Domain is a clock domain driven by the base clock. The zero value is
// invalid; use NewDomain or SetFreq before use.
type Domain struct {
	freqMHz int
	acc     int
}

// NewDomain returns a clock domain running at freqMHz. freqMHz must be in
// (0, BaseFreqMHz].
func NewDomain(freqMHz int) *Domain {
	d := &Domain{}
	d.SetFreq(freqMHz)
	return d
}

// SetFreq changes the domain frequency. The accumulator is preserved
// (clamped), so a frequency change takes effect smoothly mid-run.
func (d *Domain) SetFreq(freqMHz int) {
	if freqMHz <= 0 || freqMHz > BaseFreqMHz {
		panic(fmt.Sprintf("timing: frequency %d MHz out of range (0, %d]", freqMHz, BaseFreqMHz))
	}
	d.freqMHz = freqMHz
	if d.acc >= BaseFreqMHz {
		d.acc = BaseFreqMHz - 1
	}
}

// Tick advances the domain by one base tick and reports whether a local
// cycle fires on this tick.
func (d *Domain) Tick() bool {
	d.acc += d.freqMHz
	if d.acc >= BaseFreqMHz {
		d.acc -= BaseFreqMHz
		return true
	}
	return false
}

// Reset clears the accumulator so the next local cycle fires after a full
// local period.
func (d *Domain) Reset() { d.acc = 0 }

// AdvanceBy advances the domain n base ticks at once and returns how many
// local cycles fired. It is the exact closed form of calling Tick n times
// and counting the true results: the accumulator ends in the same state,
// so per-tick stepping may resume afterwards with no drift.
func (d *Domain) AdvanceBy(n int64) int64 {
	if n <= 0 {
		return 0
	}
	total := int64(d.acc) + n*int64(d.freqMHz)
	d.acc = int(total % BaseFreqMHz)
	return total / BaseFreqMHz
}

// TicksUntilCycle returns the smallest n >= 1 such that the k-th local
// cycle (k >= 1) fires during the n-th of the next n Tick calls. The
// engine's fast-forward path uses it to locate wakeup/switch/gating
// deadlines without stepping tick by tick.
func (d *Domain) TicksUntilCycle(k int) int64 {
	if k < 1 {
		panic(fmt.Sprintf("timing: TicksUntilCycle of non-positive cycle count %d", k))
	}
	need := int64(k)*BaseFreqMHz - int64(d.acc)
	f := int64(d.freqMHz)
	return (need + f - 1) / f
}

// CyclesIn returns how many local cycles at freqMHz fit in n base ticks,
// starting from a reset accumulator. It is the closed form of calling Tick
// n times and counting the true results.
func CyclesIn(n Tick, freqMHz int) int64 {
	return int64(n) * int64(freqMHz) / BaseFreqMHz
}
