// Package exp regenerates every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index). Static tables (I, II, III,
// V) come straight from the model packages; figures 5-9 and the §IV-B2
// headline numbers are produced by running the simulation suite.
//
// Each experiment returns a structured result with a Write method that
// renders the same rows/series the paper reports.
package exp

import (
	"fmt"
	"io"

	"repro/internal/dsent"
	"repro/internal/ml"
	"repro/internal/power"
	"repro/internal/traffic"
	"repro/internal/vr"
)

// DefaultCompression is the time-compression factor used for the
// "compressed" trace experiments (Fig 8a/8b).
const DefaultCompression = 2

// TestBenchNames returns the five test benchmarks in order.
func TestBenchNames() []string { return benchNames(traffic.Test) }

// benchNames lists the benchmarks of the given splits, split by split in
// profile order.
func benchNames(splits ...traffic.Split) []string {
	var names []string
	for _, split := range splits {
		for _, p := range traffic.ProfilesBySplit(split) {
			names = append(names, p.Name)
		}
	}
	return names
}

// ---------------------------------------------------------------------
// Table I — LDO dropout ranges.

// TableIResult mirrors Table I.
type TableIResult struct{ Rows []vr.DropoutRow }

// TableI regenerates Table I from the regulator model.
func TableI() TableIResult { return TableIResult{Rows: vr.TableI()} }

// Write renders the table.
func (t TableIResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Table I: LDO voltage dropout range per dynamically selected input")
	fmt.Fprintf(w, "%-8s %-14s %s\n", "LDO Vin", "Vout range", "dropout range")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-8.1f %.1fV - %.1fV    %.1fV - %.1fV\n", r.Vin, r.VoutLo, r.VoutHi, r.DropoutLo, r.DropoutHi)
	}
}

// ---------------------------------------------------------------------
// Table II — ns switching latency matrix.

// TableIIResult holds the 6x6 latency matrix in level order.
type TableIIResult struct {
	Levels [6]vr.Level
	NS     [6][6]float64
}

// TableII regenerates Table II.
func TableII() TableIIResult {
	var t TableIIResult
	for i := vr.PG; i <= vr.V12; i++ {
		t.Levels[i] = i
		for j := vr.PG; j <= vr.V12; j++ {
			t.NS[i][j] = vr.SwitchNS(i, j)
		}
	}
	return t
}

// Write renders the matrix.
func (t TableIIResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Table II: measured delay (ns) to switch between voltage levels")
	fmt.Fprintf(w, "%-8s", "from\\to")
	for _, l := range t.Levels {
		fmt.Fprintf(w, "%8s", l)
	}
	fmt.Fprintln(w)
	for i, l := range t.Levels {
		fmt.Fprintf(w, "%-8s", l)
		for j := range t.Levels {
			fmt.Fprintf(w, "%8.1f", t.NS[i][j])
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------
// Table III — cycle-domain costs.

// TableIIIResult mirrors Table III.
type TableIIIResult struct{ Rows []vr.Costs }

// TableIII regenerates Table III.
func TableIII() TableIIIResult { return TableIIIResult{Rows: vr.TableIII()} }

// Write renders the table.
func (t TableIIIResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Table III: T-Switch / T-Wakeup / T-Breakeven per mode (cycles)")
	fmt.Fprintf(w, "%-6s %-9s %-9s %-9s %s\n", "volt", "freq", "T-Switch", "T-Wakeup", "T-Breakeven")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-6.1f %-9s %-9d %-9d %d\n", r.Volts, fmt.Sprintf("%.2fGHz", float64(r.FreqMHz)/1000), r.TSwitch, r.TWakeup, r.TBreakeven)
	}
}

// ---------------------------------------------------------------------
// Table V — DSENT power/energy costs.

// TableVResult mirrors Table V.
type TableVResult struct{ Rows []power.VFPoint }

// TableV regenerates Table V.
func TableV() TableVResult {
	return TableVResult{Rows: append([]power.VFPoint(nil), power.Table[:]...)}
}

// Write renders the table.
func (t TableVResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Table V: static power and dynamic hop energy at 22nm")
	fmt.Fprintf(w, "%-6s %-9s %-12s %-14s %s\n", "volt", "freq", "static(J/s)", "static(cycle)", "dynamic(pJ/hop)")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-6.1f %-9s %-12.3f %-14.3f %.1f\n", r.Volts, fmt.Sprintf("%.2fGHz", float64(r.FreqMHz)/1000), r.StaticWatts, r.StaticPerCyc, r.DynamicPJHop)
	}
}

// ---------------------------------------------------------------------
// ML overhead table (§III-D).

// OverheadResult compares label-generation cost at 5 vs 41 features.
type OverheadResult struct {
	Reduced  ml.Overhead
	Original ml.Overhead
}

// OverheadTable regenerates the §III-D overhead comparison.
func OverheadTable() OverheadResult {
	return OverheadResult{Reduced: ml.LabelOverhead(5), Original: ml.LabelOverhead(41)}
}

// Write renders the comparison.
func (o OverheadResult) Write(w io.Writer) {
	fmt.Fprintln(w, "ML label-generation overhead (Horowitz 16-bit FP op costs)")
	fmt.Fprintf(w, "%-10s %-10s %-12s %s\n", "features", "energy", "area", "timing")
	for _, ov := range []ml.Overhead{o.Reduced, o.Original} {
		fmt.Fprintf(w, "%-10d %-10s %-12s %d-%d cycles\n",
			ov.Features, fmt.Sprintf("%.1fpJ", ov.EnergyPJ), fmt.Sprintf("%.3fmm2", ov.AreaMM2), ov.CyclesMin, ov.CyclesMax)
	}
}

// ---------------------------------------------------------------------
// Table V derivation — the mini-DSENT cross-check.

// TableVDerivedRow compares the analytical model against Table V at one
// V/F point.
type TableVDerivedRow struct {
	Volts        float64
	TableDynamic float64
	DerivedDyn   float64
	TableStatic  float64
	DerivedStat  float64
}

// TableVDerivedResult carries the cross-check plus the nominal component
// breakdown.
type TableVDerivedResult struct {
	Rows      []TableVDerivedRow
	Breakdown dsent.Components
}

// TableVDerived recomputes Table V from the mini-DSENT analytical model
// (22 nm technology parameters, the paper's 8-port cmesh worst-case
// router) instead of the encoded constants.
func TableVDerived() TableVDerivedResult {
	m := dsent.Calibrated()
	out := TableVDerivedResult{Breakdown: m.DynamicBreakdown(1.2)}
	for _, p := range power.Table {
		out.Rows = append(out.Rows, TableVDerivedRow{
			Volts:        p.Volts,
			TableDynamic: p.DynamicPJHop,
			DerivedDyn:   m.DynamicPJPerHop(p.Volts),
			TableStatic:  p.StaticWatts,
			DerivedStat:  m.StaticWatts(p.Volts),
		})
	}
	return out
}

// Write renders the cross-check.
func (t TableVDerivedResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Table V derived from the mini-DSENT analytical model")
	fmt.Fprintf(w, "%-6s %14s %14s %14s %14s\n", "volt", "dyn(table)", "dyn(derived)", "stat(table)", "stat(derived)")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-6.1f %14.1f %14.2f %14.3f %14.4f\n",
			r.Volts, r.TableDynamic, r.DerivedDyn, r.TableStatic, r.DerivedStat)
	}
	b := t.Breakdown
	fmt.Fprintf(w, "breakdown at 1.2V (pJ): buf-wr %.1f, buf-rd %.1f, xbar %.1f, ctl %.1f, link %.1f\n",
		b.BufferWrite, b.BufferRead, b.Crossbar, b.Control, b.Link)
}
