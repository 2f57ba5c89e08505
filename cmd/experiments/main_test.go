// Golden-output regression tests: the experiment command's rendered
// tables are snapshotted under testdata/golden/ and diffed on every test
// run, so an accidental change to a model constant, an energy formula or
// the simulation engine shows up as a readable text diff.
//
// Regenerate the snapshots after an intentional change with
//
//	go test ./cmd/experiments -run TestGolden -update
package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/ml"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// passthrough installs IBU-passthrough predictors on every suite the run
// builds, so simulation-backed goldens skip the training pipeline and
// stay fast and deterministic.
func passthrough(s *core.Suite) {
	for _, k := range core.MLKinds {
		s.SetTrainedModel(k, &ml.Ridge{Weights: []float64{0, 0, 0, 0, 1}})
	}
}

// checkGolden runs the command in-process and compares stdout against
// testdata/golden/<name>.golden.
func checkGolden(t *testing.T, name string, rc runConfig) {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, io.Discard, rc); err != nil {
		t.Fatalf("run: %v", err)
	}
	path := filepath.Join("testdata", "golden", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, out.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, out.Bytes(), want)
	}
}

// TestGoldenTables snapshots the static model tables (paper constants:
// V/F modes, regulator costs, energy figures).
func TestGoldenTables(t *testing.T) {
	checkGolden(t, "tables", runConfig{only: "table1,table2,table3,table5"})
}

// TestGoldenHeadline snapshots the full five-model comparison on a
// reduced 4x4 suite with passthrough predictors — one end-to-end pass
// through trace generation, the simulation engine (fast-forward path
// included), energy metering and the report renderer.
func TestGoldenHeadline(t *testing.T) {
	checkGolden(t, "headline-4x4", runConfig{
		only:           "headline",
		horizon:        8000,
		seed:           3,
		compress:       4,
		meshW:          4,
		meshH:          4,
		configureSuite: passthrough,
	})
}

// TestGoldenAblations snapshots every ablation section (T-Idle, punch
// horizon, global DVFS, feature counts, DozzNoC-41, Fig 9, epoch sizes,
// closed loop) on a reduced 4x4 suite with passthrough predictors.
// Seed 1 keeps the snapshot valid across changes to how the sections
// pick their traces and mcsim seeds: every such section reads the
// suite's seed, and seed 1 is the one their fixed presets used.
func TestGoldenAblations(t *testing.T) {
	checkGolden(t, "ablations-4x4", runConfig{
		only:           "tidle,punch,globaldvfs,featcount,feat41,fig9,epochs,closedloop",
		horizon:        8000,
		seed:           1,
		compress:       2,
		meshW:          4,
		meshH:          4,
		configureSuite: passthrough,
	})
}
