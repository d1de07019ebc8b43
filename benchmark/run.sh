#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build writes stays inside the checkout, under .bench_build/
# (which .gitignore names): the Go build cache, the module cache and the
# binary. Run it from the repository root, as BENCHMARK.json's command does:
#
#   bash benchmark/run.sh --workload tcp_section --seed 1 --seconds 15 --trace 0
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

# No network and no toolchain download: the module has no dependency beyond
# the repository it sits in (see go.mod's replace).
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# -buildvcs=false: the driver's checkout is not a git repository, and a
# stamped binary would differ between checkouts of one commit.
go build -C "$src" -buildvcs=false -o "$build/music-benchmark" .
exec "$build/music-benchmark" "$@"
