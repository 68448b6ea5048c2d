#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it.
#
#   bash bench/run.sh --workload pipeline --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout,
# under .bench_build/ (Go build cache, binary, bundles, WAL, run
# reports). The build fails, and so does this script, when the
# repository sources are not next to bench/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
mkdir -p "$GOTMPDIR"
(cd bench && go build -trimpath -o "$out/v2vbench" .)
TMPDIR="$GOTMPDIR" exec "$out/v2vbench" "$@"
