#!/bin/bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given. The build cache, the build's temporary files and the
# binary all stay inside the checkout, under .bench_build at its root; the
# benchmark's own files go to bench/out.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/bench" .
exec "$build/bench" "$@"
