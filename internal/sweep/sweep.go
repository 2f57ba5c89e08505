// Package sweep turns a declarative parameter-sweep specification into a
// deterministic run matrix and executes it as one crash-safe job.
//
// A Spec crosses axis slices (topology x benchmark x model x seed x
// epoch x compression x punch horizon x ridge lambda) into an ordered
// list of Runs whose IDs and order depend only on the spec, never on
// execution. The Runner executes the matrix on a bounded worker pool of
// engine suites that share immutable generated traces, and streams one
// JSONL Row per completed run through an in-order fsync'd writer: the
// results file is always a byte prefix of the file an uninterrupted job
// would write, which is what makes resume-after-crash trivially correct
// (reload the prefix, truncate a torn tail, continue from the next run).
// See DESIGN.md §5i.
package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/traffic"
)

// Spec is the declarative sweep description. Every axis slice is crossed
// with every other; empty slices select the defaults noted per field.
// The scalar fields below the axes are job-wide knobs shared by all
// runs.
type Spec struct {
	// Topos lists topologies in cli.ParseTopo syntax (mesh<W>x<H>,
	// cmesh4x4). Default: mesh8x8.
	Topos []string `json:"topos,omitempty"`
	// Models lists power-management models in core.ParseKind syntax.
	// Default: all five models, by short name.
	Models []string `json:"models,omitempty"`
	// Benches lists benchmark profiles. Default: the test-split
	// benchmarks (the paper's evaluation set).
	Benches []string `json:"benches,omitempty"`
	// Seeds lists trace-generator seeds. Default: 1.
	Seeds []int64 `json:"seeds,omitempty"`
	// EpochTicks lists DVFS epoch lengths in base ticks, each at least 1.
	// Default: 500.
	EpochTicks []int64 `json:"epoch_ticks,omitempty"`
	// Compress lists trace time-compression factors. Default: 1.
	Compress []int64 `json:"compress,omitempty"`
	// PunchHops lists injection-time wake-punch horizons using the
	// PunchSweep convention: -1 punches the whole XY path (the paper
	// default), 0 disables path punching, N>0 punches N hops ahead.
	// Default: -1.
	PunchHops []int `json:"punch_hops,omitempty"`
	// Lambdas lists ridge-regularization strengths; each value pins the
	// ML models' training to that single lambda, making it a swept
	// policy knob. Empty keeps the offline pipeline's validation-tuned
	// lambda (one arm, rendered "tuned"). Models without a trained
	// predictor ignore this axis and run once per remaining cross
	// product (rendered "na").
	Lambdas []float64 `json:"lambdas,omitempty"`

	// Horizon is the trace generation window in base ticks (default
	// 120000).
	Horizon int64 `json:"horizon,omitempty"`
	// Shards is the per-simulation tick-engine shard count. The sweep
	// default is 1 (serial sweep): job-level parallelism comes from the
	// worker pool, and results are bit-identical either way.
	Shards int `json:"shards,omitempty"`
	// Workers bounds the worker pool (0 = GOMAXPROCS). The CLI -workers
	// flag overrides it.
	Workers int `json:"workers,omitempty"`
}

// Run is one cell of the expanded matrix. Index is the cell's position
// in canonical order; ID is a stable human-readable key derived from the
// swept coordinates only.
type Run struct {
	Index      int
	ID         string
	Topo       string
	Bench      string
	Model      string // Kind.ShortName()
	Kind       core.ModelKind
	Seed       int64
	EpochTicks int64
	Compress   int64
	PunchHops  int    // PunchSweep convention (see Spec.PunchHops)
	Lambda     string // decimal lambda, "tuned", or "na" for non-ML models
}

// LambdaGrid returns the training lambda grid the run pins ("tuned" and
// "na" return nil, keeping the default tuning grid).
func (r *Run) LambdaGrid() ([]float64, error) {
	if r.Lambda == "tuned" || r.Lambda == "na" {
		return nil, nil
	}
	v, err := strconv.ParseFloat(r.Lambda, 64)
	if err != nil {
		return nil, fmt.Errorf("sweep: run %s: bad lambda: %w", r.ID, err)
	}
	return []float64{v}, nil
}

// formatLambda renders a lambda axis value for IDs and rows.
func formatLambda(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Load reads a Spec from a JSON file, rejecting unknown fields so a
// typo'd axis name fails loudly instead of silently sweeping nothing,
// and anything after the spec's one JSON value but white space, so a
// second document cannot hide behind the first.
func Load(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sweep: parse %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("sweep: parse %s: trailing data after the spec", path)
	}
	return &s, nil
}

// withDefaults returns a copy of the spec with every empty axis and
// scalar filled in.
func (s *Spec) withDefaults() Spec {
	d := *s
	if len(d.Topos) == 0 {
		d.Topos = []string{"mesh8x8"}
	}
	if len(d.Models) == 0 {
		d.Models = core.ShortNames(core.AllKinds)
	}
	if len(d.Benches) == 0 {
		for _, p := range traffic.ProfilesBySplit(traffic.Test) {
			d.Benches = append(d.Benches, p.Name)
		}
	}
	if len(d.Seeds) == 0 {
		d.Seeds = []int64{1}
	}
	if len(d.EpochTicks) == 0 {
		d.EpochTicks = []int64{500}
	}
	if len(d.Compress) == 0 {
		d.Compress = []int64{1}
	}
	if len(d.PunchHops) == 0 {
		d.PunchHops = []int{-1}
	}
	if d.Horizon == 0 {
		d.Horizon = 120_000
	}
	if d.Shards == 0 {
		d.Shards = 1
	}
	return d
}

// Expand validates the spec and produces the canonical ordered run
// matrix. The nesting order — topo, bench, model, seed, epoch,
// compression, punch, lambda (innermost) — is part of the on-disk
// contract: results files list rows in exactly this order, so a resumed
// job can treat an existing file as a prefix of its own output.
func (s *Spec) Expand() ([]Run, error) {
	d := s.withDefaults()
	for _, topo := range d.Topos {
		if _, err := cli.ParseTopo(topo); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	kinds := make([]core.ModelKind, len(d.Models))
	for i, m := range d.Models {
		k, err := core.ParseKind(m)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		kinds[i] = k
	}
	for _, b := range d.Benches {
		if _, ok := traffic.ProfileByName(b); !ok {
			return nil, fmt.Errorf("sweep: unknown benchmark %q", b)
		}
	}
	for _, ep := range d.EpochTicks {
		if ep < 1 {
			return nil, fmt.Errorf("sweep: epoch length %d < 1", ep)
		}
	}
	for _, c := range d.Compress {
		if c < 1 {
			return nil, fmt.Errorf("sweep: compression factor %d < 1", c)
		}
	}
	for _, h := range d.PunchHops {
		if h < -1 {
			return nil, fmt.Errorf("sweep: punch hops %d < -1", h)
		}
	}
	for _, l := range d.Lambdas {
		if l < 0 {
			return nil, fmt.Errorf("sweep: lambda %g < 0", l)
		}
	}

	var runs []Run
	seen := make(map[string]bool)
	for _, topo := range d.Topos {
		for _, bench := range d.Benches {
			for _, kind := range kinds {
				for _, seed := range d.Seeds {
					for _, ep := range d.EpochTicks {
						for _, c := range d.Compress {
							for _, h := range d.PunchHops {
								for _, l := range lambdaAxis(kind, d.Lambdas) {
									r := Run{
										Index:      len(runs),
										Topo:       topo,
										Bench:      bench,
										Model:      kind.ShortName(),
										Kind:       kind,
										Seed:       seed,
										EpochTicks: ep,
										Compress:   c,
										PunchHops:  h,
										Lambda:     l,
									}
									r.ID = runID(&r)
									if seen[r.ID] {
										return nil, fmt.Errorf("sweep: duplicate run %s (repeated axis value?)", r.ID)
									}
									seen[r.ID] = true
									runs = append(runs, r)
								}
							}
						}
					}
				}
			}
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("sweep: empty matrix")
	}
	return runs, nil
}

// lambdaAxis resolves the lambda axis for one model kind: non-ML models
// collapse it to a single "na" cell, ML models sweep the pinned values
// or keep the tuned default.
func lambdaAxis(k core.ModelKind, lambdas []float64) []string {
	if !k.IsML() {
		return []string{"na"}
	}
	if len(lambdas) == 0 {
		return []string{"tuned"}
	}
	out := make([]string, len(lambdas))
	for i, l := range lambdas {
		out[i] = formatLambda(l)
	}
	return out
}

// runID renders the stable run key, e.g.
// mesh8x8/fft/dozznoc/seed1/ep500/c1/ph-1/l0.01.
func runID(r *Run) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/%s/seed%d/ep%d/c%d/ph%d/l%s",
		r.Topo, r.Bench, r.Model, r.Seed, r.EpochTicks, r.Compress, r.PunchHops, r.Lambda)
	return b.String()
}
