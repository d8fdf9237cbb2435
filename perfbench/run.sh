#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; every
# argument passes through to the binary, e.g.
#
#   bash perfbench/run.sh --workload ingest_stream --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the binary and traced runs' span logs
# all stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -spans "$out/spans" "$@"
