// Package power encodes the paper's DSENT-derived power model (Table V,
// 22 nm, 128-bit flits) and provides an energy-accounting meter.
//
// A router and its outgoing links share one voltage/frequency domain. While
// a router is in an active mode m it leaks StaticWatts(m) continuously;
// every flit hop across the router plus one outgoing link costs
// DynamicPJPerHop(m) picojoules at the mode the sending router runs in.
// While inactive the router leaks nothing; while waking up it burns the
// static power of the mode it is waking into (§III-A, wakeup state).
package power

import "fmt"

// Mode is a router operating mode. The paper numbers modes so that mode 1
// is the power-gated (inactive) state, mode 2 is the wakeup state, and
// modes 3-7 are the five active V/F pairs in ascending voltage.
type Mode int

const (
	// Inactive is the power-gated state (0 V).
	Inactive Mode = 1
	// Wakeup is the transitional state charging local voltage to Vdd.
	Wakeup Mode = 2
	// M3..M7 are the active V/F pairs 0.8V/1GHz .. 1.2V/2.25GHz.
	M3 Mode = 3
	M4 Mode = 4
	M5 Mode = 5
	M6 Mode = 6
	M7 Mode = 7
)

// MinActive and MaxActive bound the active modes.
const (
	MinActive = M3
	MaxActive = M7
)

// NumActiveModes is the number of active V/F pairs.
const NumActiveModes = 5

// IsActive reports whether m is one of the five active V/F modes.
func (m Mode) IsActive() bool { return m >= MinActive && m <= MaxActive }

// Index returns the 0-based active-mode index (M3 -> 0 .. M7 -> 4).
// It panics for non-active modes.
func (m Mode) Index() int {
	i := int(m - MinActive)
	if uint(i) >= NumActiveModes {
		panicIndex(m)
	}
	return i
}

// ActiveMode returns the active mode for a 0-based index.
func ActiveMode(index int) Mode {
	if uint(index) >= NumActiveModes {
		panicIndexRange(index)
	}
	return MinActive + Mode(index)
}

// The panic helpers keep the message formatting out of line, so the mode
// lookups on the per-tick, per-hop and per-fold paths stay small enough
// to inline.

//go:noinline
func panicIndex(m Mode) { panic(fmt.Sprintf("power: Index of non-active mode %d", m)) }

//go:noinline
func panicHop(m Mode) { panic(fmt.Sprintf("power: dynamic hop energy in non-active mode %v", m)) }

//go:noinline
func panicIndexRange(index int) {
	panic(fmt.Sprintf("power: active-mode index %d out of range", index))
}

// String renders a mode ("inactive", "wakeup", "M3".."M7").
func (m Mode) String() string {
	switch m {
	case Inactive:
		return "inactive"
	case Wakeup:
		return "wakeup"
	}
	if m.IsActive() {
		return fmt.Sprintf("M%d", int(m))
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// VFPoint is one voltage/frequency operating point with its Table V costs.
type VFPoint struct {
	Mode         Mode
	Volts        float64
	FreqMHz      int
	StaticWatts  float64 // router + outgoing links leakage (J/s)
	StaticPerCyc float64 // Table V's normalized "Static Power (Cycle)" column
	DynamicPJHop float64 // pJ per flit hop across router + one link
}

// Table is Table V of the paper: static power and dynamic energy to hop
// across the router and a link at 22 nm, per active mode.
var Table = [NumActiveModes]VFPoint{
	{Mode: M3, Volts: 0.8, FreqMHz: 1000, StaticWatts: 0.036, StaticPerCyc: 0.667, DynamicPJHop: 25.1},
	{Mode: M4, Volts: 0.9, FreqMHz: 1500, StaticWatts: 0.041, StaticPerCyc: 0.750, DynamicPJHop: 31.8},
	{Mode: M5, Volts: 1.0, FreqMHz: 1800, StaticWatts: 0.045, StaticPerCyc: 0.833, DynamicPJHop: 39.2},
	{Mode: M6, Volts: 1.1, FreqMHz: 2000, StaticWatts: 0.050, StaticPerCyc: 0.917, DynamicPJHop: 47.5},
	{Mode: M7, Volts: 1.2, FreqMHz: 2250, StaticWatts: 0.054, StaticPerCyc: 1.0, DynamicPJHop: 56.5},
}

// Point returns the VFPoint of an active mode.
func Point(m Mode) VFPoint { return Table[m.Index()] }

// FreqMHz returns the clock frequency of an active mode in MHz.
func FreqMHz(m Mode) int { return Table[m.Index()].FreqMHz }

// Volts returns the supply voltage of an active mode.
func Volts(m Mode) float64 { return Point(m).Volts }

// StaticWatts returns leakage power in watts for a router in mode m.
// Inactive leaks nothing; Wakeup callers should bill the target mode via
// StaticWattsWaking.
func StaticWatts(m Mode) float64 {
	if m == Inactive {
		return 0
	}
	if m == Wakeup {
		// Callers that know the wake target should use that mode; as a
		// conservative default the wakeup state is billed at the highest
		// mode (the paper bills wakeup at active-state power).
		return Table[NumActiveModes-1].StaticWatts
	}
	return Table[m.Index()].StaticWatts
}

// StaticWattsWaking returns leakage during wakeup into target mode; the
// paper states a waking router consumes the same power as if active.
func StaticWattsWaking(target Mode) float64 {
	if !target.IsActive() {
		target = MaxActive
	}
	return Table[target-MinActive].StaticWatts
}

// DynamicPJPerHop returns the dynamic energy in pJ charged when a flit
// traverses a router and its outgoing link at mode m.
func DynamicPJPerHop(m Mode) float64 {
	i := int(m - MinActive)
	if uint(i) >= NumActiveModes {
		panicHop(m)
	}
	return Table[i].DynamicPJHop
}

// ModeForVolts returns the active mode with the given supply voltage
// (exact match on the five Table V points) and whether one matched.
func ModeForVolts(v float64) (Mode, bool) {
	for _, p := range Table {
		if p.Volts == v {
			return p.Mode, true
		}
	}
	return 0, false
}
