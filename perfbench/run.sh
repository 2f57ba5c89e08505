#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build and
# runs it with the given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload sweep-paper --seed 1 --seconds 10 --trace 0
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
# Keep every build artifact inside the checkout and never reach the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd perfbench && go build -buildvcs=false -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -out "$out/perfbench" "$@"
