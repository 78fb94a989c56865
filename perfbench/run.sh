#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it from
# the checkout root with the given arguments, e.g.
#   bash perfbench/run.sh --workload fleet-ease --seed 1 --seconds 45 --trace 0
# Build outputs, the Go build cache and temporary files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
out="$(pwd)/${CARGO_TARGET_DIR:-.bench_build}/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOENV=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
