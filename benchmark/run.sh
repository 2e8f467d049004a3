#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it,
# keeping everything the build writes inside that checkout.
#
#   bash benchmark/run.sh --workload serve-hot --seed 1 --seconds 24 --trace 0
#   bash benchmark/run.sh            # all four workloads, one child process each
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTELEMETRYDIR="$build/telemetry"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/polymer-benchmark" ./benchmark
exec "$build/polymer-benchmark" "$@"
