package cli

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

func TestParseTopo(t *testing.T) {
	m, err := ParseTopo("mesh8x8")
	if err != nil || m.NumRouters() != 64 || m.Concentration() != 1 {
		t.Fatalf("mesh8x8 = %v, %v", m, err)
	}
	c, err := ParseTopo("cmesh4x4")
	if err != nil || c.NumRouters() != 16 || c.Concentration() != 4 {
		t.Fatalf("cmesh4x4 = %v, %v", c, err)
	}
	r, err := ParseTopo("mesh6x3")
	if err != nil || r.Width() != 6 || r.Height() != 3 {
		t.Fatalf("mesh6x3 = %v, %v", r, err)
	}
	for _, bad := range []string{"", "torus4x4", "meshAxB", "grid", "mesh1x4", "cmesh4x0", "mesh-2x-2", "mesh4x4junk", "mesh04x4"} {
		if _, err := ParseTopo(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestParsePattern(t *testing.T) {
	cases := map[string]traffic.Pattern{
		"uniform":   traffic.UniformRandom,
		"random":    traffic.UniformRandom,
		"transpose": traffic.Transpose,
		"bitcomp":   traffic.BitComplement,
		"hotspot":   traffic.Hotspot,
		"neighbor":  traffic.Neighbor,
	}
	for name, want := range cases {
		got, err := ParsePattern(name)
		if err != nil || got != want {
			t.Errorf("ParsePattern(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePattern("zigzag"); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestStartProfilesRuntimeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exec.trace")
	stop, err := StartProfiles("", path, "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	// The Go runtime writes its trace header eagerly, so even a trace
	// covering almost no execution must be non-empty and start with the
	// "go 1." version banner.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("runtime trace file is empty")
	}
	// With every path empty, StartProfiles must be a no-op that still
	// returns a callable stop.
	stop, err = StartProfiles("", "", "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if _, err := StartProfiles("", filepath.Join(t.TempDir(), "no/such/dir/t"), ""); err == nil {
		t.Error("uncreatable trace path accepted")
	}
}

func TestStartObs(t *testing.T) {
	// Both flags off: no observer, close is a no-op.
	o, closeObs, err := StartObs("", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if o != nil {
		t.Error("observer without any sink")
	}
	closeObs()

	// Trace only: an observer with metrics and a tracer, file written on
	// close.
	path := filepath.Join(t.TempDir(), "phases.jsonl")
	o, closeObs, err = StartObs("", path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if o == nil || o.Metrics == nil || o.Tracer == nil {
		t.Fatalf("trace-out observer incomplete: %+v", o)
	}
	o.Tracer.BeginRun("t", 1)
	o.Tracer.Instant(0, "epoch", 1, -1)
	closeObs()
	if data, err := os.ReadFile(path); err != nil || len(data) == 0 {
		t.Fatalf("phase trace not written: %v", err)
	}

	// Endpoint only: metrics observer, no tracer.
	o, closeObs, err = StartObs("127.0.0.1:0", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if o == nil || o.Metrics == nil || o.Tracer != nil {
		t.Fatalf("obs-addr observer incomplete: %+v", o)
	}
	closeObs()
}

func TestLoadTrace(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	tr := traffic.Synthetic(topo, traffic.UniformRandom, 0.01, 1000, 1)
	path := filepath.Join(t.TempDir(), "x.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(tr.Entries) {
		t.Fatalf("loaded %d entries, want %d", len(got.Entries), len(tr.Entries))
	}
	if _, err := LoadTrace(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file loaded")
	}
}

// TestWriteFilePropagatesErrors is the output-path bugfix's test: both a
// failing write and a failing Close must surface as errors, because on a
// full disk the failure often only appears when buffered data is flushed
// at close — the old bare `defer f.Close()` pattern produced a truncated
// file and exit code 0.
func TestWriteFilePropagatesErrors(t *testing.T) {
	dir := t.TempDir()

	// Write error.
	wantErr := errors.New("disk full")
	err := WriteFile(filepath.Join(dir, "w"), func(io.Writer) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("write error swallowed: %v", err)
	}

	// Close error: the callback closes the descriptor underneath the
	// *os.File, so WriteFile's own Close must fail — the closest portable
	// stand-in for a flush that dies at close time.
	err = WriteFile(filepath.Join(dir, "c"), func(w io.Writer) error {
		return syscall.Close(int(w.(*os.File).Fd()))
	})
	if err == nil {
		t.Fatal("close error swallowed")
	}

	// Uncreatable path.
	if err := WriteFile(filepath.Join(dir, "no/such/dir/f"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("create error swallowed")
	}

	// The success path still writes the content.
	path := filepath.Join(dir, "ok")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "payload" {
		t.Fatalf("content = %q, %v", data, err)
	}
}
