#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it. Every file the build and the run write stays under .bench_build/ at
# the checkout root.
#
#   bash perfbench/run.sh --workload gateway-1024x768 --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
