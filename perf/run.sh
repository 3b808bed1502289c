#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file the toolchain writes (build cache, temp files, telemetry) is kept
# under .bench_build/ so a run reads and writes only inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gomod"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
cd "$root"
# -buildvcs=false: the checkout need not be a git repository.
go build -buildvcs=false -o "$build/etude-perf" ./perf
exec "$build/etude-perf" -out "$here/out" "$@"
