package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// maxFuzzRuns bounds the matrix a fuzzed spec may expand to. Expand
// materializes the whole cross product, so a few long axes ask for
// billions of runs; the fuzzer is after validation paths, not
// allocation size.
const maxFuzzRuns = 10_000

// matrixBound is an upper bound on the number of runs s expands to
// (lambda values count for every model), saturating at maxFuzzRuns+1.
func matrixBound(s *Spec) int {
	d := s.withDefaults()
	n := 1
	for _, l := range []int{len(d.Topos), len(d.Benches), len(d.Models), len(d.Seeds),
		len(d.EpochTicks), len(d.Compress), len(d.PunchHops), max(len(d.Lambdas), 1)} {
		n *= l
		if n > maxFuzzRuns {
			return maxFuzzRuns + 1
		}
	}
	return n
}

// FuzzSweepSpec feeds arbitrary bytes through Load and Expand, the path
// a cmd/sweep -spec file takes. Both must return an error or a value,
// never panic; a file Load accepts must hold exactly one JSON value; and
// a matrix Expand accepts must be non-empty with dense indices and
// unique run IDs.
func FuzzSweepSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		spec, err := Load(path)
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("Load accepted %q, which is not one JSON value", data)
		}
		if matrixBound(spec) > maxFuzzRuns {
			t.Skip("matrix too large to expand")
		}
		runs, err := spec.Expand()
		if err != nil {
			return
		}
		if len(runs) == 0 {
			t.Fatal("Expand accepted an empty matrix")
		}
		seen := make(map[string]bool, len(runs))
		for i, r := range runs {
			if r.Index != i {
				t.Fatalf("run %d has index %d", i, r.Index)
			}
			if seen[r.ID] {
				t.Fatalf("duplicate run ID %s", r.ID)
			}
			seen[r.ID] = true
		}
	})
}

// FuzzReadResults writes arbitrary bytes as a results file and reads it
// back, the path a resuming cmd/sweep job takes. ReadResults must never
// panic, and on any input the truncation point it reports must be a
// line boundary inside the file, torn must say whether bytes follow it,
// and every row must carry an ID.
func FuzzReadResults(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"id":"a","topo":"mesh4x4","ticks":10}` + "\n"))
	f.Add([]byte(`{"id":"a","ticks":10}` + "\n" + `{"id":"b","to`))
	f.Add([]byte(`{"id":"a"}` + "\ngarbage\n" + `{"id":"c"}` + "\n"))
	f.Add([]byte(`{"ticks":1}` + "\n"))
	f.Add([]byte("\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "results.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rows, validOff, torn, err := ReadResults(path)
		if err != nil {
			t.Fatal(err)
		}
		size := int64(len(data))
		if validOff < 0 || validOff > size {
			t.Fatalf("validOff %d outside [0, %d]", validOff, size)
		}
		if validOff > 0 && data[validOff-1] != '\n' {
			t.Fatalf("validOff %d does not end a line", validOff)
		}
		if torn != (validOff < size) {
			t.Fatalf("torn = %v with validOff %d of %d bytes", torn, validOff, size)
		}
		if n := bytes.Count(data[:validOff], []byte{'\n'}); len(rows) != n {
			t.Fatalf("%d rows from %d intact lines", len(rows), n)
		}
		for i, r := range rows {
			if r.ID == "" {
				t.Fatalf("row %d has an empty ID", i)
			}
		}
	})
}
