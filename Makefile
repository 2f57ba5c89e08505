GO ?= go
BENCH_FILE ?= BENCH_$(shell date +%Y-%m-%d).json
# bench-gate baseline: newest committed snapshot unless overridden.
BASE ?= $(shell ls BENCH_*.json 2>/dev/null | sort | tail -1)

.PHONY: build test vet race race-sharded fuzz-smoke bench bench-compare bench-gate obs-overhead metrics-lint drift-smoke sweep-smoke perfbench-test check golden-update

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static hygiene gate: go vet plus a gofmt drift check (gofmt -l lists
# any file whose formatting differs from canonical; a non-empty list
# fails the target and prints the offenders).
vet:
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt: the following files need reformatting:"; \
		echo "$$fmtout"; exit 1; \
	fi

# The race target is the concurrency gate: it exercises the Suite's
# parallel entry points (CompareParallel, HarvestParallel,
# TrainAllParallel) under the race detector.
race:
	$(GO) test -race ./...

# The sharded-equivalence race gate, runnable on its own: the concurrent
# tick engine's bit-exactness proofs (DESIGN.md §5c-5d) under the race
# detector — concurrent sweeps plus the destination-shard wire-landing
# path under banded and randomized heavy traffic — fast enough to fail a
# sharding bug before the full race sweep runs. The claim barrier's own
# tests ride first: the park-handshake interleavings and a Session stress
# run that alternates parked and polling workers at GOMAXPROCS 1 and 2.
# The cosim daemon's
# multi-client and backpressure tests (DESIGN.md §5f) ride along: they
# are the multiplexing layer's race gate. The suite's claim-then-wait
# harvest tests (DESIGN.md §5i) ride along too, next to the sweep job
# tests, which train ML models from several workers at once.
race-sharded:
	$(GO) test -race -run 'TestParkerRecheckCatchesRacingWake|TestClaimBarrierStress|TestShardedSweepEngagesAndMatchesSerial|TestParallelLandings|TestActiveSetEquivalence|TestRetile|TestHorizonEquivalence' ./internal/sim
	$(GO) test -race -run 'TestDaemonConcurrentClients|TestDaemonBackpressureBusy|TestDaemonServeTCP' ./internal/cosim
	$(GO) test -race -run 'TestConcurrentTrainHarvestsOnce|TestParallelEntryPointsConcurrently|TestHarvestParallel|TestCompareParallelRunsUnsharded' ./internal/core
	$(GO) test -race -run 'TestSweep' ./internal/sweep

# Protocol fuzz smoke: run the cosim frame-decoder fuzz target for 10s
# on top of its committed seed corpus (internal/cosim/testdata/fuzz).
# Catches decoder panics/hangs on malformed frames before they ship;
# run with a longer -fuzztime locally when touching proto.go.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/cosim

# Benchmark snapshot: the JSON log (test2json stream) goes to
# $(BENCH_FILE) for later comparison; the human-readable text is echoed
# via cmd/benchtxt.
bench:
	$(GO) test -bench=. -benchmem -json . > $(BENCH_FILE)
	$(GO) run ./cmd/benchtxt $(BENCH_FILE)

# Diff two bench snapshots: make bench-compare OLD=BENCH_a.json NEW=BENCH_b.json
# Prefers benchstat when installed; the cmd/benchtxt fallback applies the
# same significance convention (Mann-Whitney U at alpha=0.05, `~` for
# indistinguishable deltas), so both paths agree on what changed.
bench-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make bench-compare OLD=BENCH_a.json NEW=BENCH_b.json"; exit 2; }
	@if command -v benchstat >/dev/null 2>&1; then \
		$(GO) run ./cmd/benchtxt $(OLD) > $(OLD).txt; \
		$(GO) run ./cmd/benchtxt $(NEW) > $(NEW).txt; \
		benchstat $(OLD).txt $(NEW).txt; \
	else \
		$(GO) run ./cmd/benchtxt -compare $(OLD) $(NEW); \
	fi

# Benchmark regression gate: rerun the scheduling benchmarks and compare
# against the committed baseline (newest BENCH_*.json unless BASE= is
# given), failing on >10% regression of the min-of-runs ns/op via
# cmd/benchtxt -gate (min, not mean, so a noisy runner needs every run
# disturbed to trip it; raise COUNT for more samples per benchmark).
GATE_BENCHES = BenchmarkHotspot|BenchmarkBigMesh|BenchmarkBigMeshWire|BenchmarkMediumLoad|BenchmarkBursty|BenchmarkClosedLoopMcsim
COUNT ?= 1
bench-gate:
	@test -n "$(BASE)" || { echo "bench-gate: no BENCH_*.json baseline found (set BASE=)"; exit 2; }
	$(GO) test -bench='$(GATE_BENCHES)' -benchmem -count=$(COUNT) -json . > .bench-gate.json
	$(GO) run ./cmd/benchtxt -gate -pattern '$(GATE_BENCHES)' -max-regress 10 $(BASE) .bench-gate.json

# Observability overhead gate: BenchmarkMediumLoad with obs disabled vs
# enabled-but-unsubscribed (DOZZNOC_OBS=1 makes bench_test.go attach a
# Metrics with no tracer and no endpoint reader). The attached layer now
# includes the full prediction-quality recorder — per-lane histograms,
# mispredict-cost attribution, and the Page-Hinkley drift detector
# (DESIGN.md §5j) — so this gate covers the whole pipeline, not just the
# counters. Both runs produce the same benchmark names, so cmd/benchtxt
# -gate compares them directly; the enabled run must stay within 2% of
# the disabled run's min-of-runs ns/op — the layer is required to be
# near-free even when someone leaves it attached.
OBS_COUNT ?= 5
obs-overhead:
	$(GO) test -bench=BenchmarkMediumLoad -benchmem -count=$(OBS_COUNT) -json . > .obs-off.json
	DOZZNOC_OBS=1 $(GO) test -bench=BenchmarkMediumLoad -benchmem -count=$(OBS_COUNT) -json . > .obs-on.json
	$(GO) run ./cmd/benchtxt -gate -pattern 'BenchmarkMediumLoad' -max-regress 2 .obs-off.json .obs-on.json

# Exposition-format gate: render the fixed-trace golden snapshot and
# scrape a live /metrics endpoint, validating both with the vendored
# Prometheus text-format checker (internal/obs/promlint.go) — no
# external promtool needed. The obs-package unit tests for the renderer
# and the checker itself ride along.
metrics-lint:
	$(GO) test -run 'TestMetricsGoldenExposition|TestMetricsEndpointLint' ./internal/sim
	$(GO) test -run 'TestRenderMetrics|TestLintExposition' ./internal/obs

# Drift-detection smoke: a frozen-weights model must trip the
# Page-Hinkley detector when the workload phase-shifts away from its
# training regime, and must stay silent on the stationary control
# (DESIGN.md §5j).
drift-smoke:
	$(GO) test -run TestDriftSmoke ./internal/sim

# Sweep-orchestrator crash-safety smoke: run a tiny 2-model x 2-bench
# matrix through cmd/sweep with a forced stop after 2 rows, resume it to
# completion, and -check that the results file is complete and matches
# the spec's matrix (exit 1 if any row is missing, torn, or misordered).
SWEEP_SMOKE_OUT = .sweep-smoke.jsonl
sweep-smoke:
	@rm -f $(SWEEP_SMOKE_OUT)
	$(GO) run ./cmd/sweep -spec cmd/sweep/testdata/smoke.json -out $(SWEEP_SMOKE_OUT) -max-runs 2
	$(GO) run ./cmd/sweep -spec cmd/sweep/testdata/smoke.json -out $(SWEEP_SMOKE_OUT)
	$(GO) run ./cmd/sweep -spec cmd/sweep/testdata/smoke.json -out $(SWEEP_SMOKE_OUT) -check
	@rm -f $(SWEEP_SMOKE_OUT)

# The benchmark's own tests: percentile choice, span self time, the digest
# check, the decorators and a tiny-size smoke run of every workload.
# perfbench/ is its own module, so `make test` never reaches it; this runs
# it with perfbench/run.sh's offline toolchain settings.
perfbench-test:
	cd perfbench && GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off $(GO) test ./...

# CI entry point: vet + full tests (includes the cosim protocol and
# bit-exact daemon-equivalence suites) + sharded-equivalence race gate +
# full race detector sweep + protocol fuzz smoke + observability
# overhead gate + /metrics exposition lint + drift-detection smoke +
# sweep-orchestrator restart smoke + the benchmark's own tests.
check: vet test race-sharded race fuzz-smoke obs-overhead metrics-lint drift-smoke sweep-smoke perfbench-test

# Regenerate the cmd/experiments golden snapshots after an intentional
# output change (review the diff before committing).
golden-update:
	$(GO) test ./cmd/experiments -run TestGolden -update
