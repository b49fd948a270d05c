#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
#
#   bash benchmark/run.sh --workload suite|compile|vgiwd|sweep --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, daemon stores, span files) stays under
# $CARGO_TARGET_DIR, default .bench_build, so the checkout is the only
# directory touched.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp \
	XDG_CONFIG_HOME=$build/config GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C benchmark build -o "$build/vgiwbench" .
exec "$build/vgiwbench" -root "$root" -work "$build" "$@"
