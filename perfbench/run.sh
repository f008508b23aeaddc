#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload pipeline-batch --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build in the current directory.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
