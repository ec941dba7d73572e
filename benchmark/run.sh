#!/usr/bin/env bash
# Entry point BENCHMARK.json names: builds the benchmark from the checkout's
# source and runs it with the arguments given. Everything the build writes
# (binary, build cache, temporary files, the go command's configuration)
# stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $PWD: the router's source is not here, nothing to build" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# With a fresh configuration directory the go command would start a detached
# telemetry child that outlives this script; mode "off" starts none.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
