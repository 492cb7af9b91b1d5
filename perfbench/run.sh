#!/usr/bin/env bash
# Builds the benchmark and the catiserve daemon from this checkout's
# sources, then runs one benchmark pass. Run it from the repository root:
#
#   bash perfbench/run.sh --workload interactive --seed 1 --seconds 15 --trace 0
#
# Everything it writes (Go build cache, binaries, model and corpus scratch
# files, span files) stays under the build directory, .bench_build by
# default or $CARGO_TARGET_DIR when set.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

(cd perfbench && go build -o "$build/perfbench" . && go build -o "$build/catiserve" repro/cmd/catiserve)
exec "$build/perfbench" -catiserve "$build/catiserve" -workdir "$build/run" -spans "$build/spans" "$@"
