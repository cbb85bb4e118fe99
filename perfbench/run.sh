#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload campaign_sweep --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under the build directory, $CARGO_TARGET_DIR or .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/config" "$build/gopath"

# XDG_CONFIG_HOME and GOPATH keep the go command's own files (telemetry,
# module cache) in the build directory too.
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp
export XDG_CONFIG_HOME=$build/config GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -build-dir "$build" "$@"
