#!/usr/bin/env bash
# Builds the benchmark and dspserve from the checkout's sources, then runs
# one workload. Run it from the repository root:
#
#   bash benchmark/run.sh --workload sweep-preempt --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, including the Go build cache, so the first run compiles the
# standard library and later runs reuse it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export CGO_ENABLED=0

go build -o "$out/dspserve" ./cmd/dspserve
(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" -out "$out" "$@"
