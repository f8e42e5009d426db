#!/usr/bin/env bash
# Builds planserver and the benchmark from source into .bench_build, then
# runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --open-rate hot=3000,cold=500,churn=500 \
#       --workload hot --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOPATH="$out/home/go" GOPROXY=off GOTOOLCHAIN=local

go build -o "$out/bin/planserver" ./cmd/planserver
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -planserver "$out/bin/planserver" -out "$out/perfbench" "$@"
