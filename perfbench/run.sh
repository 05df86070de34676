#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; all arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload fleet-warm --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, traced-run
# profiles and spans) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off GOTELEMETRY=off
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
