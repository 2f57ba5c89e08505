package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeLog writes a synthetic plain-text `go test -bench` output: a
// header, the given benchmark lines, and the trailer.
func writeLog(t *testing.T, path string, lines ...string) {
	t.Helper()
	text := "goos: linux\npkg: repro\n" + strings.Join(lines, "\n") + "\nPASS\nok  \trepro\t1.0s\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
}

// pairLogs writes base and change logs, one benchmark line per sample.
func pairLogs(t *testing.T, name string, base, change []string) (string, string) {
	t.Helper()
	dir := t.TempDir()
	bp, cp := filepath.Join(dir, "base.txt"), filepath.Join(dir, "change.txt")
	writeLog(t, bp, lines(name, base)...)
	writeLog(t, cp, lines(name, change)...)
	return bp, cp
}

func lines(name string, nsOps []string) []string {
	out := make([]string, len(nsOps))
	for i, ns := range nsOps {
		out[i] = name + "-2\t 100\t " + ns + " ns/op\t 64 B/op\t 2 allocs/op"
	}
	return out
}

// TestParseBenchAggregatesCountRuns pins repeated-run handling: lines of
// one benchmark (with a GOMAXPROCS suffix) collect under one stripped
// name, in file order, so the i-th run pairs with the other side's i-th.
func TestParseBenchAggregatesCountRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.txt")
	writeLog(t, path,
		"BenchmarkMesh-8\t 100\t 1200 ns/op\t 64 B/op\t 2 allocs/op",
		"BenchmarkMesh/sub-8\t 100\t 7 ns/op",
		"BenchmarkMesh-8\t 100\t 1000 ns/op\t 64 B/op\t 2 allocs/op",
		"BenchmarkMesh-8\t 100\t 1100 ns/op\t 64 B/op\t 2 allocs/op",
	)
	res, err := parseBench(path)
	if err != nil {
		t.Fatal(err)
	}
	got := res["BenchmarkMesh"]
	if len(got) != 3 || got[0] != 1200 || got[1] != 1000 || got[2] != 1100 {
		t.Fatalf("BenchmarkMesh samples = %v, want [1200 1000 1100]", got)
	}
	if sub := res["BenchmarkMesh/sub"]; len(sub) != 1 {
		t.Errorf("sub-benchmark samples = %v", sub)
	}
}

// TestGateIdenticalRunsPass: the same samples on both sides read a
// median ratio of exactly 1 and pass.
func TestGateIdenticalRunsPass(t *testing.T) {
	runs := []string{"1000", "1300", "900", "1100", "1000"}
	bp, cp := pairLogs(t, "BenchmarkMesh", runs, runs)
	if err := gate(io.Discard, bp, cp, 10); err != nil {
		t.Errorf("identical runs failed the gate: %v", err)
	}
}

// TestGateTripsOnRealRegression: a 15% shift in every pair fails the 10%
// bound and names the regressed benchmark; a second benchmark within
// tolerance does not appear in the failure.
func TestGateTripsOnRealRegression(t *testing.T) {
	dir := t.TempDir()
	bp, cp := filepath.Join(dir, "base.txt"), filepath.Join(dir, "change.txt")
	base := []string{"1000", "1400", "900", "1200", "1000"}
	shifted := []string{"1150", "1610", "1035", "1380", "1150"}
	writeLog(t, bp, append(lines("BenchmarkMesh", base), lines("BenchmarkHotspot", base)...)...)
	writeLog(t, cp, append(lines("BenchmarkMesh", shifted), lines("BenchmarkHotspot", base)...)...)
	err := gate(io.Discard, bp, cp, 10)
	if err == nil {
		t.Fatal("gate passed a 15% paired regression")
	}
	if !strings.Contains(err.Error(), "BenchmarkMesh") {
		t.Errorf("failure does not name the regressed benchmark: %v", err)
	}
	if strings.Contains(err.Error(), "BenchmarkHotspot") {
		t.Errorf("failure names a benchmark that did not regress: %v", err)
	}
}

// TestGateIgnoresOneSidedBenchmarks: a benchmark present in only one file
// is not gated, however slow; with no common benchmark at all the gate
// reports an error rather than passing vacuously.
func TestGateIgnoresOneSidedBenchmarks(t *testing.T) {
	dir := t.TempDir()
	bp, cp := filepath.Join(dir, "base.txt"), filepath.Join(dir, "change.txt")
	writeLog(t, bp, append(lines("BenchmarkMesh", []string{"1000", "1000"}), lines("BenchmarkRetired", []string{"5"})...)...)
	writeLog(t, cp, append(lines("BenchmarkMesh", []string{"1000", "1000"}), lines("BenchmarkNew", []string{"99999"})...)...)
	if err := gate(io.Discard, bp, cp, 10); err != nil {
		t.Errorf("one-sided benchmarks tripped the gate: %v", err)
	}
	writeLog(t, cp, lines("BenchmarkNew", []string{"1000"})...)
	if err := gate(io.Discard, bp, cp, 10); err == nil {
		t.Error("disjoint logs passed the gate")
	}
}
