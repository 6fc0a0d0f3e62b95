#!/usr/bin/env bash
# Builds the benchmark and runs it, from the root of the checkout, with the
# given arguments. bench/ is a module of its own (bench/go.mod, which takes
# the simulator's packages from the parent directory). Everything the Go
# toolchain writes (build cache, temporary files, its own config) is kept
# under .bench_build in the checkout, so a run touches nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/nvmetro-bench" .
exec "$build/nvmetro-bench" "$@"
