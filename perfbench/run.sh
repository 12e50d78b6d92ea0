#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload study --seed 1 --seconds 25 --trace 0
# Build products, the Go build cache and run scratch files all stay in
# .bench_build/ under the repository root.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export TMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOFLAGS=
# The toolchain keeps its config and telemetry under the user config dir.
export XDG_CONFIG_HOME="$out/config"

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
