#!/usr/bin/env bash
# Builds the perfbench layer-ledger benchmark from source and runs it,
# passing every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fig9-c1c3 --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache and temporary checkpoint stores all
# stay under .bench_build/ in the checkout.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$bench_dir" build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out/work" "$@"
