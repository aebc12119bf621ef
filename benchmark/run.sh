#!/usr/bin/env bash
# Builds the harness inside the checkout and runs it. Everything the Go
# toolchain writes — build cache, module cache, binaries — stays under
# .bench_build, so a run touches nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOENV=off
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
export HOME="$build/home"
(cd "$here" && go build -o "$build/bin/benchmark" .)
cd "$root"
exec "$build/bin/benchmark" "$@"
