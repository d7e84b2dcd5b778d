#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of
# a checkout as `bash benchmark/run.sh --workload NAME --seed N
# --seconds S --trace 0|1`. Everything the build and the run write
# stays under .bench_build/ in that checkout: the Go build cache, the
# binary, the clusters' state directories and the trace files.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=

# The module replaces `cosplit` with the directory above it, so this
# fails where the repository's sources are missing.
(cd "$(dirname "$0")" && go build -o "$build/cosplit-benchmark" .)
exec "$build/cosplit-benchmark" "$@"
