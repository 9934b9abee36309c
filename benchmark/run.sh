#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout (binary and Go build cache under .bench_build/, so
# nothing is written outside it) and runs it with the given arguments.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
go build -o "$build/mrdb-benchmark" ./benchmark
exec "$build/mrdb-benchmark" "$@"
