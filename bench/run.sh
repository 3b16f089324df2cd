#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build and the run write (Go build cache, temp dirs,
# ledger directories, the binary) lands under .bench_build/ in the
# checkout root; nothing is written outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOPROXY=off

(cd "$root/bench" && go build -buildvcs=false -o "$build/irs-e2e" .)
cd "$root"
exec "$build/irs-e2e" -tmp "$build/tmp" "$@"
