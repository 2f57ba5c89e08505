// Command benchtxt is the same-host A/B gate behind `make bench-gate`.
// It reads two plain-text `go test -bench` outputs, BASE and CHANGE,
// recorded as alternating pairs on one host, and pairs the i-th run of
// each benchmark in BASE with its i-th run in CHANGE:
//
//	benchtxt -max-regress 10 base.txt change.txt
//
// For every benchmark present on both sides it prints stats.Paired of
// the ns/op samples: the median change/base ratio with its quartiles,
// how many pairs the change won, and the Mann-Whitney p of the two
// samples. It exits nonzero if any median ratio is more than
// -max-regress percent above 1. Benchmarks present on one side only are
// ignored: a new benchmark has no base, and a retired one gates nothing.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

func main() {
	maxRegress := flag.Float64("max-regress", 10, "allowed median ns/op regression percent")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchtxt [-max-regress PCT] BASE.txt CHANGE.txt")
		os.Exit(2)
	}
	// Stdout is buffered, and the flush error is checked like any other
	// output path: a full disk or closed pipe at flush time must not
	// hide behind exit code 0.
	out := bufio.NewWriter(os.Stdout)
	err := gate(out, flag.Arg(0), flag.Arg(1), *maxRegress)
	if ferr := out.Flush(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtxt:", err)
		os.Exit(1)
	}
}

// parseBench returns each benchmark's ns/op samples in file order, keyed
// by name with the GOMAXPROCS suffix stripped.
func parseBench(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		nsOp, ok := metric(fields, "ns/op")
		if !ok {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		out[name] = append(out[name], nsOp)
	}
	return out, sc.Err()
}

// metric finds `<value> <unit>` in a benchmark line's fields.
func metric(fields []string, unit string) (float64, bool) {
	for i := 1; i < len(fields); i++ {
		if fields[i] == unit {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// gate prints the paired comparison of every benchmark common to both
// files and fails if any median ratio exceeds 1 + maxRegress/100.
func gate(w io.Writer, basePath, changePath string, maxRegress float64) error {
	base, err := parseBench(basePath)
	if err != nil {
		return err
	}
	change, err := parseBench(changePath)
	if err != nil {
		return err
	}
	var names []string
	for name := range base {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no common benchmarks between %s and %s", basePath, changePath)
	}
	fmt.Fprintf(w, "%-50s %11s  %-16s %7s %7s\n", "benchmark", "change/base", "[q1, q3]", "wins", "p")
	var failed []string
	for _, name := range names {
		p := stats.Paired(base[name], change[name])
		verdict := ""
		if p.Regressed(maxRegress) {
			verdict = "  REGRESSED"
			failed = append(failed, name)
		}
		fmt.Fprintf(w, "%-50s %11.3f  [%.3f, %.3f] %3d/%-3d %7.3f%s\n",
			name, p.Median, p.Q1, p.Q3, p.Wins, p.Pairs, p.P, verdict)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %g%% on the median paired ns/op ratio: %s",
			len(failed), maxRegress, strings.Join(failed, ", "))
	}
	fmt.Fprintf(w, "gate passed: %d benchmark(s) within %g%% (median of paired ns/op ratios)\n", len(names), maxRegress)
	return nil
}
