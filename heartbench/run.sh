#!/usr/bin/env bash
# Builds the heartshield benchmark from source and runs it. Run from the
# repository root:
#
#   bash heartbench/run.sh --workload exchange --seed 1 --seconds 12 --trace 0
#
# Every file the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod" "$build/config" "$build/heartbench"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOMODCACHE="$build/gomod"
# The go command keeps its env file and telemetry counters under the user
# config directory; keep those in the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go -C heartbench build -o "$build/heartbench/heartbench" . >&2
exec "$build/heartbench/heartbench" -work "$build/heartbench" "$@"
