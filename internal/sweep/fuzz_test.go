package sweep

import (
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
// never panic, and a matrix Expand accepts must be non-empty with dense
// indices and unique run IDs.
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
