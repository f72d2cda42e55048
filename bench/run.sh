#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the arguments given.
# Everything the Go toolchain writes — build cache, module path, temporary
# files — is kept inside .bench_build/ too, so a run reads and writes
# nothing outside its checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/awpbench" ./bench
exec "$build/awpbench" "$@"
