#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash benchmark/run.sh --workload track-paper --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, module cache and
# binary live under .bench_build/ in the checkout, so nothing is written
# outside it; the first build compiles the standard library and takes a
# minute or two.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOTELEMETRY=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/fttt-benchmark" .)
exec "$out/fttt-benchmark" "$@"
