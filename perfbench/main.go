// Command perfbench is the repository's benchmark. It runs one workload
// in-process — a paper-matrix sweep job, a bursty co-simulation client, or
// one large banded mesh — for a fixed measuring time, checks that the
// simulated outputs are correct, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics of a separate traced pass) as the
// last line of standard output:
//
//	perfbench -workload cosim-bursty -seed 1 -seconds 10 -trace 0
//
// README.md in this directory says why each workload exists and which
// end-to-end metric each per-layer metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// params is what a workload receives: the generated-input seed, the
// measuring budget, whether to run the traced pass, and a size divisor
// (1 for the benchmark; larger values shrink every input for the smoke
// tests, which also skips the pinned digests).
type params struct {
	seed   int64
	budget time.Duration
	trace  bool
	shrink int64
	outDir string // scratch files and span output
}

// pinned reports whether the run uses the default seed at full size, the
// one configuration whose output digests are pinned.
func (p params) pinned() bool { return p.seed == 1 && p.shrink == 1 }

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	problems          []string
	e2e, layer        metrics
	digest            string    // of the untraced outputs
	rec               *recorder // traced pass spans (nil untraced)
}

// fail records a failed op with its reason.
func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(params) (*result, error){
	"sweep-paper":    runSweep,
	"cosim-bursty":   runCosim,
	"bigmesh-banded": runBigMesh,
}

// e2eNames and layerNames fix the metric sets of the two output modes, in
// print order; a workload leaves a metric it cannot observe at 0.
var e2eNames = []metric{
	{Name: "setup_s", Unit: "s"},
	{Name: "sim_mrt_per_s", Unit: "Mrt/s"},
	{Name: "rows_per_s", Unit: "rows/s"},
	{Name: "op_p50_us", Unit: "us"},
	{Name: "op_tail_us", Unit: "us"},
	{Name: "peak_rss_mb", Unit: "MiB"},
}

var layerNames = []metric{
	{Name: "traffic.generate_ms", Unit: "ms"},
	{Name: "traffic.entries", Unit: "count"},
	{Name: "core.harvest_s", Unit: "s"},
	{Name: "ml.tune_s", Unit: "s"},
	{Name: "ml.dataset_rows", Unit: "count"},
	{Name: "ml.predict_ns", Unit: "ns"},
	{Name: "ml.predict_calls", Unit: "count"},
	{Name: "features.collect_ns", Unit: "ns"},
	{Name: "features.calls", Unit: "count"},
	{Name: "policy.epoch_decisions", Unit: "count"},
	{Name: "policy.gatings", Unit: "count"},
	{Name: "policy.wakes", Unit: "count"},
	{Name: "policy.mode_switches", Unit: "count"},
	{Name: "sim.run_s", Unit: "s"},
	{Name: "sim.ns_per_router_tick", Unit: "ns"},
	{Name: "sim.ns_per_flit", Unit: "ns"},
	{Name: "sim.skip_frac", Unit: "ratio"},
	{Name: "sim.lazy_frac", Unit: "ratio"},
	{Name: "sim.parallel_tick_frac", Unit: "ratio"},
	{Name: "sim.parallel_landings", Unit: "count"},
	{Name: "sim.shard_resplits", Unit: "count"},
	{Name: "sim.snapshot_us", Unit: "us"},
	{Name: "sim.pool_hit_frac", Unit: "ratio"},
	{Name: "obs.overhead_frac", Unit: "ratio"},
	{Name: "cosim.overhead_us", Unit: "us"},
	{Name: "cosim.decode_ns", Unit: "ns"},
	{Name: "cosim.encode_ns", Unit: "ns"},
	{Name: "cosim.transfer_p50_us", Unit: "us"},
	{Name: "cosim.transfer_samples", Unit: "count"},
	{Name: "op.units", Unit: "count"},
	{Name: "op.samples", Unit: "count"},
	{Name: "op.tail_pct", Unit: "pct"},
	{Name: "host.ref_ms", Unit: "ms"},
	{Name: "host.steal_frac", Unit: "ratio"},
	{Name: "host.ref_samples", Unit: "count"},
	{Name: "sweep.first_row_s", Unit: "s"},
	{Name: "sweep.pool_busy_frac", Unit: "ratio"},
	{Name: "runtime.alloc_mb", Unit: "MiB"},
	{Name: "runtime.gc_cycles", Unit: "count"},
	{Name: "trace.overhead_frac", Unit: "ratio"},
	{Name: "trace.spans", Unit: "count"},
	{Name: "self.sweep_s", Unit: "s"},
	{Name: "self.traffic_s", Unit: "s"},
	{Name: "self.core_s", Unit: "s"},
	{Name: "self.ml_s", Unit: "s"},
	{Name: "self.features_s", Unit: "s"},
	{Name: "self.sim_s", Unit: "s"},
	{Name: "self.cosim_s", Unit: "s"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: sweep-paper, cosim-bursty or bigmesh-banded")
	seed := fl.Int64("seed", 1, "seed of the generated inputs")
	seconds := fl.Int("seconds", 10, "measuring time in seconds")
	trace := fl.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	out := fl.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch files, spans and result records")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// One worker per CPU the process may run on: the sweep pool, the
	// sharded engine and the daemon's worker slots all size from it.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	p := params{seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1, shrink: 1, outDir: *out}
	fp := hostFingerprint(*name, *seed)
	fpJSON, _ := json.Marshal(fp) // a struct of strings and ints always marshals
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)

	res, err := w(p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	names, got := e2eNames, res.e2e
	if p.trace {
		names, got = layerNames, res.layer
	}
	line, err := resultLine(res, names, got)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, pr := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: FAILED: %s\n", *name, pr)
	}
	if res.rec != nil {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.csv", *name, *seed))
		if err := res.rec.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
	}
	record := struct {
		Fingerprint fingerprint     `json:"fingerprint"`
		Trace       bool            `json:"trace"`
		Digest      string          `json:"output_sha256"`
		Problems    []string        `json:"problems,omitempty"`
		Result      json.RawMessage `json:"result"`
	}{fp, p.trace, res.digest, res.problems, line}
	if b, err := json.MarshalIndent(record, "", "  "); err == nil {
		path := filepath.Join(*out, fmt.Sprintf("result-%s-seed%d-trace%d.json", *name, *seed, *trace))
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "perfbench: write result record: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "output sha256 %s\n", res.digest)
	for _, m := range fill(names, got) {
		fmt.Fprintf(stdout, "%-26s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// fill returns the metrics of names in order, taking each value from the
// last entry of got with that name and leaving the ones got lacks at 0.
func fill(names []metric, got metrics) metrics {
	out := make(metrics, 0, len(names))
	for _, n := range names {
		v := metric{Name: n.Name, Unit: n.Unit}
		for _, g := range got {
			if g.Name == n.Name {
				v.Value = g.Value
			}
		}
		out = append(out, v)
	}
	return out
}

// resultLine renders the final output object.
func resultLine(res *result, names []metric, got metrics) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value)
	for _, m := range fill(names, got) {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0 && len(res.problems) == 0, res.attempted, res.failed, ms})
}

// fingerprint identifies the host and source a result was measured on.
type fingerprint struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Time       string `json:"time"`
}

func hostFingerprint(workload string, seed int64) fingerprint {
	return fingerprint{
		Workload:   workload,
		Seed:       seed,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Source:     sourceDigest(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from a .git directory in the working directory;
// a checkout without one reports "none" (sourceDigest still pins the code).
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, l := range strings.Split(string(packed), "\n") {
		if h, r, ok := strings.Cut(l, " "); ok && r == ref {
			return h
		}
	}
	return "unknown"
}

// sourceDigest hashes the simulator's sources (go.mod plus every .go file
// under internal/ and cmd/), so results from a checkout without git
// history still name the code they measured.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	for _, root := range []string{"internal", "cmd"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck — a missing tree hashes as empty
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, f := range append([]string{"go.mod"}, files...) {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
