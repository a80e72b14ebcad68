#!/bin/bash
# The harness entry point named by BENCHMARK.json: build the benchmark from
# source inside the checkout, then run it with the harness's arguments.
# Everything the build writes (Go's build cache, work directories and
# telemetry counters included) stays under .bench_build at the root of the
# checkout; the driver's own builds of the probes inherit these settings.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -root "$root" "$@"
