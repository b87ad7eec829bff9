#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the root
# of the checkout; every argument goes to the benchmark binary:
#
#   bash perfbench/run.sh --workload durable-chain --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary and the WAL directories.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

# The build's own output goes to stderr: the last line of stdout is the
# benchmark's JSON result.
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -dir "$build/work" "$@"
