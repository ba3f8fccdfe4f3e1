#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#
# Run it from the root of a checkout. Everything it writes stays under
# that directory: the Go build cache, temporary files and the binary in
# .bench_build/, the benchmark's journals and span files in .bench_work/
# (both are in .gitignore). It fails, printing no result, where there is
# no go.mod — a directory holding only the benchmark cannot be measured.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
# The module has no dependencies, so these are never filled; they are
# set so that go does not need $HOME to exist.
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"

go build -o "$build/shield-benchmark" ./benchmark
exec "$build/shield-benchmark" "$@"
