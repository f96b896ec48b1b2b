#!/usr/bin/env bash
# Builds the starmagic benchmark from the sources of this checkout and runs
# one workload:
#
#   bash magicbench/run.sh --workload dashboard --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, data
# directories, span dumps) goes under .bench_build/ at the checkout root.
set -euo pipefail

bench=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench")
build="$root/.bench_build"
mkdir -p "$build/tmp"

# The go command's caches, config and telemetry stay in the build
# directory too.
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export TMPDIR="$build/tmp"

(cd "$bench" && HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" go build -o "$build/magicbench" .)
exec "$build/magicbench" --workdir "$build" "$@"
