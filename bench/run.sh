#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the driver (this directory, a Go
# module of its own) into <checkout>/.bench_build and runs it from the
# checkout root. The Go build and module caches, and the go command's own
# config and telemetry directory, are kept under .bench_build too, so a run
# writes nothing outside its checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" -root "$root" "$@"
