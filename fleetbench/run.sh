#!/usr/bin/env bash
# Builds the serving binaries and the benchmark from this checkout, then
# runs one benchmark pass. Run it from the repository root:
#
#   bash fleetbench/run.sh --workload steady-mixed --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/smartserve" || ! -f "$root/fleetbench/go.mod" ]]; then
	echo "fleetbench: run from the repository root (needs go.mod, cmd/ and fleetbench/)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/work" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
export FLEETBENCH_ROOT="$root"

go build -o "$build/bin/" ./cmd/smartrain ./cmd/smartctl ./cmd/smartserve ./cmd/smartgw
(cd "$root/fleetbench" && go build -o "$build/bin/fleetbench" .)
exec "$build/bin/fleetbench" -bin "$build/bin" -work "$build/work" "$@"
