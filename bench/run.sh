#!/usr/bin/env bash
# Builds the benchmark, and the simulator it drives, from source in this
# checkout, then runs it with the given arguments. Run it from the
# repository root:
#
#   bash bench/run.sh --workload serve-overload --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/ in the checkout, and nothing is
# fetched: the benchmark module needs only the repository itself.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C bench build -o "$out/lightvm-perfbench" .
exec "$out/lightvm-perfbench" "$@"
