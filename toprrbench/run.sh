#!/usr/bin/env bash
# Builds the benchmark and the toprrd daemon from this checkout, then runs
# one workload. Run it from the repository root:
#
#   bash toprrbench/run.sh --workload dashboard --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache, scratch data and span files all stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/toprrbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/toprrbench" && go build -o "$out/toprrbench" . && go build -o "$out/toprrd" toprr/cmd/toprrd) >&2
exec "$out/toprrbench" -toprrd "$out/toprrd" -work "$out/work" "$@"
