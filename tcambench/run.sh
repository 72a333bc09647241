#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Every
# build artifact, cache and scratch file stays under .bench_build/ in
# the checkout root; the binary replaces this shell, so no process
# outlives the run.
#
#   bash tcambench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" # the go command's telemetry and config
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

bin="$build/tcambench"
(cd "$here" && go build -o "$bin.tmp.$$" .) >&2
mv -f "$bin.tmp.$$" "$bin"
cd "$root"
exec "$bin" "$@"
