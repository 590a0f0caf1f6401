#!/usr/bin/env bash
# Builds mustd and the benchmark from this checkout and runs one
# benchmark pass; arguments are passed through, e.g.
#
#   bash perfbench/run.sh --workload search-clip768 --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache, WAL
# files and traces all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/run"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/mustd" ./cmd/mustd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -mustd "$out/bin/mustd" -workdir "$out/run" "$@"
