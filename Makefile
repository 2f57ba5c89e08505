GO ?= go
# bench-gate base revision (any git rev).
BASE ?= HEAD

.PHONY: build test vet race race-sharded fuzz-smoke bench bench-gate obs-overhead metrics-lint drift-smoke sweep-smoke perfbench-test check golden-update

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

# The race target is the concurrency gate: it exercises the Suite's pool
# (TrainAll, HarvestParallel, Compare, RunBenchmarks, RunConfigs) under the race
# detector, with and without an observer attached.
race:
	$(GO) test -race ./...

# The sharded-equivalence race gate, runnable on its own: the concurrent
# tick engine's bit-exactness proofs (DESIGN.md §5c-5d) under the race
# detector — concurrent sweeps plus the destination-shard wire-landing
# path under banded and randomized heavy traffic, and the seed corpus of
# the engine-vs-reference fuzzer (sharded seeds included) — fast enough
# to fail a sharding bug before the full race sweep runs. The claim
# barrier's own tests ride first: the park-handshake interleavings and a
# Session stress run that alternates parked and polling workers at
# GOMAXPROCS 1 and 2. The obs fold tests ride last: shard workers write
# the per-shard counters (lazy catch-up, sweeps) the epoch fold reads.
# The cosim daemon's multi-client and backpressure tests (DESIGN.md §5f)
# ride along: they are the multiplexing layer's race gate. The suite's
# training tests (DESIGN.md §5i: Train and TrainAll harvest on the pool,
# each harvest claimed once) and the suite's pool tests ride along too,
# next to the sweep job tests, which train ML models from several
# workers at once. The pooled-experiment tests run the ablations'
# concurrent mcsim workloads and global selectors on the suite's pool.
race-sharded:
	$(GO) test -race -run 'TestParkerRecheckCatchesRacingWake|TestClaimBarrierStress|TestShardedSweepEngagesAndMatchesSerial|TestParallelLandings|FuzzEngineVsReference|TestRetile|TestObsLaneFoldMatchesSerial|TestObsMirrorsEngineDiagnostics' ./internal/sim
	$(GO) test -race -run 'TestDaemonConcurrentClients|TestDaemonBackpressureBusy|TestDaemonServeTCP' ./internal/cosim
	$(GO) test -race -run 'TestConcurrentTrainHarvestsOnce|TestParallelEntryPointsConcurrently|TestHarvestParallel|TestCompareParallelRunsUnsharded|TestCompareParallelMatchesSequential|TestParallelOptionMatchesSequential|TestObservedSuiteRunsSerially' ./internal/core
	$(GO) test -race -run 'TestSweep' ./internal/sweep
	$(GO) test -race -run 'TestPooledAblationsMatchDirectRuns|TestObservedAblationsBindEveryRun' ./internal/exp

# Fuzz smoke: run the cosim frame-decoder fuzz target, the
# engine-vs-reference differential fuzzer, the sweep-spec fuzzer, the
# results-file reader fuzzer and the binary and CSV trace decoders'
# fuzzers for 10s each on top of their committed seed corpora
# (internal/*/testdata/fuzz). Catches decoder panics/hangs on malformed
# frames, any configuration where the fast engine and
# sim.Config.Reference disagree, sweep spec files that panic instead of
# failing with an error, results files whose resume point is not a line
# boundary, and trace files that panic or decode to an invalid trace
# instead of failing with an error, before they ship; run with a longer
# -fuzztime locally when touching proto.go, the engine, the spec, the
# results reader or the trace codec.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/cosim
	$(GO) test -run '^$$' -fuzz FuzzEngineVsReference -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzSweepSpec -fuzztime 10s ./internal/sweep
	$(GO) test -run '^$$' -fuzz FuzzReadResults -fuzztime 10s ./internal/sweep
	$(GO) test -run '^$$' -fuzz FuzzReadBinary -fuzztime 10s ./internal/traffic
	$(GO) test -run '^$$' -fuzz FuzzReadCSV -fuzztime 10s ./internal/traffic

bench:
	$(GO) test -bench=. -benchmem .

# Same-host A/B regression gate: build the root test binary at $(BASE)
# (a git worktree under a temp dir) and from the working tree, run each
# scheduling benchmark as GATE_PAIRS alternating base/change pairs,
# swapping the order each pair, and fail if any benchmark's median
# paired ns/op ratio (stats.Paired via cmd/benchtxt) is more than 10%
# above 1. The two runs of a pair are adjacent in time, so host drift
# between pairs cancels in their ratio.
GATE_BENCHES = BenchmarkHotspot BenchmarkBigMesh BenchmarkBigMeshWire BenchmarkMediumLoad BenchmarkBursty BenchmarkClosedLoopMcsim
GATE_PAIRS ?= 5
bench-gate:
	@set -e; tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp/base" >/dev/null 2>&1; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach "$$tmp/base" $(BASE) >/dev/null; \
	(cd "$$tmp/base" && $(GO) test -c -o "$$tmp/base.test" .); \
	$(GO) test -c -o "$$tmp/change.test" .; \
	for i in $$(seq $(GATE_PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi; \
		for bench in $(GATE_BENCHES); do \
			for arm in $$order; do \
				if [ $$arm = base ]; then dir="$$tmp/base"; else dir=.; fi; \
				(cd "$$dir" && "$$tmp/$$arm.test" -test.run '^$$' -test.bench "^$$bench\$$" -test.benchmem -test.timeout 10m) >> "$$tmp/$$arm.txt"; \
			done; \
		done; \
	done; \
	$(GO) run ./cmd/benchtxt -max-regress 10 "$$tmp/base.txt" "$$tmp/change.txt"

# Observability overhead gate: BenchmarkObsOverhead times the
# BenchmarkMediumLoad activeset run with obs disabled and with an
# enabled-but-unsubscribed Metrics (no tracer, no endpoint open, so the
# epoch fold makes no live-snapshot copy) as alternating pairs in one
# process, and fails if the median paired obs-on/obs-off ratio
# (stats.Paired) is more than 2% above 1. The attached layer includes
# the full prediction-quality recorder — histograms, mispredict-cost
# attribution, and the Page-Hinkley drift detector (DESIGN.md §5j) — so
# the gate covers the whole pipeline: the layer must stay near-free even
# when someone leaves it attached. Building with -tags obsslowdown adds
# 3% to the obs-on arm, which must fail the gate (obs_slowdown_test.go).
obs-overhead:
	$(GO) test -run '^$$' -bench '^BenchmarkObsOverhead$$' -benchtime 1x .

# Exposition-format gate: render the fixed-trace golden snapshot and
# scrape a live /metrics endpoint, validating both with the vendored
# Prometheus text-format checker (internal/obs/promlint, test support) — no
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
