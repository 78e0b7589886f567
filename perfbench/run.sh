#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed through:
#
#   bash perfbench/run.sh --workload top10k --seed 1 --seconds 12 --trace 0
#
# The Go build cache, the binary and the benchmark's scratch files all
# live under .bench_build/ in the current directory, so a run reads and
# writes nothing outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)

PERFBENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT
exec "$build/perfbench" "$@"
