#!/usr/bin/env bash
# Builds tastiserve and the benchmark driver from the checkout this is run
# in, then runs the driver with the given arguments, for example:
#
#   bash perfbench/run.sh --workload query_mix --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays in
# .bench_build/ under that root, the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOENV=off

go build -o "$out/bin/tastiserve" ./cmd/tastiserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin/tastiserve" -work "$out" "$@"
