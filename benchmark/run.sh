#!/usr/bin/env bash
# Entry point BENCHMARK.json names: build the benchmark from source inside
# the checkout, then run it with the arguments given. Everything the build
# and the run write stays under the working directory (.bench_build for the
# compiler's cache and the binary, .bench_work for the run's scratch files),
# so it works in a checkout that is not a git repository and on a machine
# whose home directory is read-only. `go run ./benchmark` does the same for
# a developer who does not mind the shared build cache.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/pclouds-benchmark" ./benchmark
exec "$build/pclouds-benchmark" "$@"
