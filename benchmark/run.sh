#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout:  bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build, module and scratch directories, the binary, the
# stores and the span files.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/priste-benchmark" .)
exec "$build/priste-benchmark" -dir "$build" "$@"
