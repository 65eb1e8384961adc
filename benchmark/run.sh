#!/usr/bin/env bash
# Builds formserve and the benchmark from source, then runs one benchmark
# workload. Run from the repository root:
#
#   bash benchmark/run.sh --workload cold-extract --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries and the traced runs' spans.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/bin/formserve" ./cmd/formserve
(cd benchmark && go build -o "$out/bin/benchmark" .)
exec "$out/bin/benchmark" -formserve "$out/bin/formserve" -span-dir "$out/spans" "$@"
