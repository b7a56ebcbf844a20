#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, from the current directory:
#
#   bash benchmark/run.sh --workload drain --seed 1 --seconds 25 --trace 0
#   bash benchmark/run.sh compare OLD NEW
#
# Every file the build writes (binary, Go build cache, Go's own config and
# telemetry) stays under $CARGO_TARGET_DIR, default .bench_build, so nothing
# outside the checkout is touched and no network access is attempted.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)

export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$here" build -o "$build/icb-benchmark" .
exec "$build/icb-benchmark" "$@"
