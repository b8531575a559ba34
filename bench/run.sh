#!/usr/bin/env bash
# The benchmark's one door: builds bench/ from source into .bench_build/ and
# runs it from the checkout root. Everything the Go toolchain and the
# benchmark write (build cache, link temp files, telemetry counters, server
# data dirs, traces) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C bench build -o "$out/dcl1-bench" .
exec "$out/dcl1-bench" "$@"
