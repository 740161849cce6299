#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there. Everything the Go toolchain writes
# (build cache, temporary files, module cache) is kept inside the
# checkout, so a run touches nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local
go -C "$root/bench" build -o "$build/enginebench" . >&2
cd "$root"
exec "$build/enginebench" "$@"
