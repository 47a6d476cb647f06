#!/usr/bin/env bash
# Builds the canonical migration benchmark from source and runs it.
# Run from the repository root:
#   bash canonbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# The build cache, the binary, profiles, span exports and the Go
# tool's own config and telemetry all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" PPROF_TMPDIR="$build/pprof"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOSUMDB=off
(cd "$root/canonbench" && go build -o "$build/canonbench.bin" .) >&2
exec "$build/canonbench.bin" --out "$build/canonbench" "$@"
