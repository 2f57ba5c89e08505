package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/traffic"
)

// testSpec is a small but multi-axis matrix: 2 models x 2 benches x
// 2 seeds = 8 runs, non-ML models only so no training happens, tiny
// horizon so the whole job is fast.
func testSpec() *Spec {
	return &Spec{
		Topos:   []string{"mesh4x4"},
		Models:  []string{"baseline", "pg"},
		Benches: []string{"fft", "lu"},
		Seeds:   []int64{1, 2},
		Horizon: 3_000,
		Workers: 3,
	}
}

func TestSweepExpand(t *testing.T) {
	spec := &Spec{
		Topos:   []string{"mesh4x4"},
		Models:  []string{"baseline", "dozznoc"},
		Benches: []string{"fft"},
		Lambdas: []float64{0.01, 1},
	}
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// The lambda axis collapses to one "na" cell for the non-ML model
	// and sweeps both pinned values for the ML model: 1 + 2 runs.
	if len(runs) != 3 {
		t.Fatalf("expanded %d runs, want 3", len(runs))
	}
	wantIDs := []string{
		"mesh4x4/fft/baseline/seed1/ep500/c1/ph-1/lna",
		"mesh4x4/fft/dozznoc/seed1/ep500/c1/ph-1/l0.01",
		"mesh4x4/fft/dozznoc/seed1/ep500/c1/ph-1/l1",
	}
	for i, want := range wantIDs {
		if runs[i].ID != want || runs[i].Index != i {
			t.Errorf("run %d = %s (index %d), want %s", i, runs[i].ID, runs[i].Index, want)
		}
	}
	// Expansion is deterministic.
	again, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if runs[i] != again[i] {
			t.Fatalf("expansion not deterministic at %d: %+v vs %+v", i, runs[i], again[i])
		}
	}
	// Defaults: an all-empty spec is the full five-model evaluation.
	all, err := (&Spec{}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5*5 { // 5 test-split benches x 5 models
		t.Errorf("default matrix has %d runs, want 25", len(all))
	}
	// Any accepted spelling names a run by the kind's short name.
	aliased, err := (&Spec{Models: []string{"Power-Gated", "ml-turbo"}, Benches: []string{"fft"}}).Expand()
	if err != nil || len(aliased) != 2 || aliased[0].Model != "pg" || aliased[1].ID != "mesh8x8/fft/turbo/seed1/ep500/c1/ph-1/ltuned" {
		t.Errorf("aliased models expanded to %+v, %v", aliased, err)
	}

	for _, bad := range []*Spec{
		{Benches: []string{"nosuch"}},
		{Models: []string{"mystery"}},
		{Topos: []string{"torus3x3"}},
		{Compress: []int64{0}},
		{EpochTicks: []int64{0}},
		{EpochTicks: []int64{-500}},
		{Seeds: []int64{1, 1}},                  // duplicate axis value -> duplicate run ID
		{Models: []string{"turbo", "ML+TURBO"}}, // one kind under two spellings
	} {
		if _, err := bad.Expand(); err == nil {
			t.Errorf("spec %+v accepted", bad)
		}
	}

	// Load reads exactly one JSON value: trailing white space is fine,
	// a second document or junk after the spec is not.
	dir := t.TempDir()
	for _, c := range []struct {
		text string
		ok   bool
	}{
		{`{"models":["pg"],"benches":["fft"]}` + "\n\t ", true},
		{`{"models":["pg"],"benches":["fft"]}` + "\n" + `{"models":["mystery"]} trailing junk`, false},
		{`{"models":["pg"]} x`, false},
	} {
		path := filepath.Join(dir, "spec.json")
		if err := os.WriteFile(path, []byte(c.text), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); (err == nil) != c.ok {
			t.Errorf("Load(%q) err = %v, want ok=%v", c.text, err, c.ok)
		}
	}
}

func TestSweepReadResultsTornLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.jsonl")
	line1 := `{"id":"a","topo":"mesh4x4","ticks":10}` + "\n"
	line2 := `{"id":"b","topo":"mesh4x4","ticks":20}` + "\n"
	torn := `{"id":"c","to`
	if err := os.WriteFile(path, []byte(line1+line2+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	rows, off, isTorn, err := ReadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].ID != "a" || rows[1].ID != "b" {
		t.Fatalf("rows = %+v", rows)
	}
	if want := int64(len(line1) + len(line2)); off != want {
		t.Errorf("validOff = %d, want %d", off, want)
	}
	if !isTorn {
		t.Error("torn tail not detected")
	}

	// A terminated but malformed line is also the torn point.
	if err := os.WriteFile(path, []byte(line1+"garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rows, off, isTorn, err = ReadResults(path)
	if err != nil || len(rows) != 1 || off != int64(len(line1)) || !isTorn {
		t.Fatalf("garbage line: rows=%d off=%d torn=%v err=%v", len(rows), off, isTorn, err)
	}

	// Missing file: zero rows, no error.
	rows, off, isTorn, err = ReadResults(filepath.Join(dir, "missing"))
	if err != nil || rows != nil || off != 0 || isTorn {
		t.Fatalf("missing file: rows=%v off=%d torn=%v err=%v", rows, off, isTorn, err)
	}
}

// TestSweepRunsAndResumes is the crash-safety acceptance test: a job
// killed mid-matrix — including mid-JSONL-line — must resume to a
// results file byte-identical to an uninterrupted job's, with no lost
// and no duplicated rows.
func TestSweepRunsAndResumes(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()

	// Reference: one uninterrupted job.
	refPath := filepath.Join(dir, "ref.jsonl")
	rep, err := RunJob(spec, refPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Done() || rep.Written != 8 || rep.Resumed != 0 || rep.Stopped {
		t.Fatalf("reference report = %+v", rep)
	}
	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(ref, []byte("\n")); n != 8 {
		t.Fatalf("reference file has %d rows, want 8", n)
	}

	// Interrupted: stop after 3 rows, then simulate the crash tearing
	// the last line in half.
	path := filepath.Join(dir, "r.jsonl")
	rep, err = RunJob(spec, path, Options{MaxNewRuns: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done() || !rep.Stopped || rep.Written != 3 {
		t.Fatalf("interrupted report = %+v", rep)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-17], 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume: the torn row is discarded and re-run, everything already
	// intact is skipped, and the final bytes match the reference.
	rep, err = RunJob(spec, path, Options{MaxNewRuns: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Done() || !rep.Truncated || rep.Resumed != 2 || rep.Written != 6 || rep.Stopped {
		t.Fatalf("resume report = %+v", rep)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("resumed results differ from uninterrupted run:\n got %d bytes\nwant %d bytes", len(got), len(ref))
	}

	// Running a complete job again is a no-op.
	rep, err = RunJob(spec, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Done() || rep.Written != 0 || rep.Resumed != 8 {
		t.Fatalf("no-op report = %+v", rep)
	}

	// A results file from a different spec is rejected, not clobbered.
	other := testSpec()
	other.Seeds = []int64{7, 8}
	if _, err := RunJob(other, path, Options{}); err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("mismatched spec accepted: %v", err)
	}
}

func TestSweepRowsAreDeterministic(t *testing.T) {
	// Two independent jobs over the same spec must produce identical
	// bytes even though worker scheduling differs — the row schema may
	// only contain run-configuration-determined fields.
	spec := testSpec()
	spec.Benches = []string{"fft"}
	spec.Seeds = []int64{1}
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	if _, err := RunJob(spec, a, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunJob(spec, b, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	da, _ := os.ReadFile(a)
	db, _ := os.ReadFile(b)
	if !bytes.Equal(da, db) {
		t.Fatalf("worker count changed row bytes:\n%s\nvs\n%s", da, db)
	}
	rows, _, _, err := ReadResults(a)
	if err != nil || len(rows) != 2 {
		t.Fatalf("rows = %d, err %v", len(rows), err)
	}
	for _, r := range rows {
		if r.Ticks == 0 || r.PacketsDelivered == 0 {
			t.Errorf("row %s looks empty: %+v", r.ID, r)
		}
		if r.Obs == nil || r.Obs.Epochs == 0 {
			t.Errorf("row %s is missing its epoch-fold capture", r.ID)
		}
		if r.Obs != nil {
			// The full Deterministic() contract: every scheduling- or
			// wall-clock-dependent field must be zeroed in the embedded
			// capture, nothing else.
			o := r.Obs
			if o.TicksPerSec != 0 || o.Run != 0 {
				t.Errorf("row %s leaked nondeterministic obs fields: %+v", r.ID, o)
			}
			if o.ShardSweeps != nil || o.ShardLoad != nil {
				t.Errorf("row %s leaked per-shard slices: %+v", r.ID, o)
			}
			if o.ShardImbalance != 0 || o.ShardResplits != 0 ||
				o.ParallelTicks != 0 || o.ParallelLandings != 0 || o.ActiveRouters != 0 {
				t.Errorf("row %s leaked scheduling diagnostics: %+v", r.ID, o)
			}
			// Prediction-quality fields are deterministic and must survive
			// the Deterministic() filter (nonzero for observed ML-free runs
			// too: every selector reports epoch decisions).
			if o.EpochDecisions == 0 {
				t.Errorf("row %s lost deterministic epoch decisions: %+v", r.ID, o)
			}
			if o.AbsErrHist.Count == 0 {
				t.Errorf("row %s lost its prediction-error histogram: %+v", r.ID, o)
			}
		}
	}
}

// TestSweepMLRowsAreDeterministic trains the three ML models inside the
// job: with three workers, pairs of rows train one kind at the same time
// and split its harvests, and the results file must still be byte-for-
// byte the one a single worker writes.
func TestSweepMLRowsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("ML training in -short mode")
	}
	spec := &Spec{
		Topos:    []string{"mesh4x4"},
		Models:   []string{"lead", "dozznoc", "turbo"},
		Benches:  []string{"fft"},
		Compress: []int64{1, 2},
		Horizon:  3_000,
	}
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	if _, err := RunJob(spec, a, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunJob(spec, b, Options{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	da, _ := os.ReadFile(a)
	db, _ := os.ReadFile(b)
	if !bytes.Equal(da, db) {
		t.Fatalf("worker count changed ML row bytes:\n%s\nvs\n%s", da, db)
	}
	if n := bytes.Count(da, []byte("\n")); n != 6 {
		t.Fatalf("results file has %d rows, want 6", n)
	}
}

func TestSweepCompare(t *testing.T) {
	mk := func(model string, seed int64, edp float64) Row {
		return Row{
			ID: "x", Topo: "mesh4x4", Bench: "fft", Model: model, Seed: seed,
			EpochTicks: 500, Compress: 1, PunchHops: -1, Lambda: "na", EDP: edp,
		}
	}
	var rows []Row
	// Clear separation across 4 seeds: pg always below baseline.
	for i, v := range []float64{100, 101, 102, 103} {
		rows = append(rows, mk("baseline", int64(i+1), v))
	}
	for i, v := range []float64{80, 81, 82, 83} {
		rows = append(rows, mk("pg", int64(i+1), v))
	}
	// Interleaved samples: no significant difference.
	for i, v := range []float64{100, 90, 104, 95} {
		r := mk("lead", int64(i+1), v)
		r.Lambda = "tuned"
		rows = append(rows, r)
	}

	out, err := Compare(rows, "edp", "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("compare rows = %+v", out)
	}
	if out[0].Model != "baseline" || out[0].Delta != "" || out[0].N != 4 {
		t.Errorf("baseline row = %+v", out[0])
	}
	byModel := map[string]CompareRow{}
	for _, r := range out {
		byModel[r.Model] = r
	}
	// n=4 vs n=4 complete separation: exact two-sided p = 2/70.
	pg := byModel["pg"]
	if !strings.HasPrefix(pg.Delta, "-19.") || pg.P > 0.03 {
		t.Errorf("pg arm = %+v, want significant ~-19.5%% delta", pg)
	}
	// The ML arm keeps its lambda in the context label and still finds
	// the "na" baseline arm.
	lead := byModel["lead"]
	if lead.Delta != "~" {
		t.Errorf("lead arm = %+v, want insignificant ~", lead)
	}
	if !strings.Contains(lead.Context, "ltuned") {
		t.Errorf("lead context = %q, want lambda in label", lead.Context)
	}

	if _, err := Compare(rows, "volume", "baseline"); err == nil {
		t.Error("unknown metric accepted")
	}

	// Rendering smoke: the "~" must survive into the table.
	var buf bytes.Buffer
	WriteCompare(&buf, out, "edp", "baseline")
	if !strings.Contains(buf.String(), "~") || !strings.Contains(buf.String(), "(base)") {
		t.Errorf("table output:\n%s", buf.String())
	}
}

// TestSweepGeneratesSharedTraceOnce: two epoch groups are two suites
// replaying one (topo, seed, bench) trace. With two workers their first
// runs miss the job-wide trace cache at the same moment; the in-flight
// entry must still make them generate it once, so both suites end up
// holding the same trace object.
func TestSweepGeneratesSharedTraceOnce(t *testing.T) {
	spec := &Spec{
		Topos:      []string{"mesh4x4"},
		Models:     []string{"baseline"},
		Benches:    []string{"fft"},
		EpochTicks: []int64{500, 1000},
		Horizon:    3_000,
	}
	r := newRunner(spec)
	rep, err := r.runJob(spec, filepath.Join(t.TempDir(), "r.jsonl"), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Done() || len(r.groups) != 2 {
		t.Fatalf("report %+v over %d suites, want a finished job over 2", rep, len(r.groups))
	}
	generated := map[*traffic.Trace]bool{}
	for _, s := range r.groups {
		tr, err := s.Trace("fft")
		if err != nil {
			t.Fatal(err)
		}
		generated[tr] = true
	}
	if len(generated) != 1 {
		t.Fatalf("the shared trace was generated %d times, want 1", len(generated))
	}
}
