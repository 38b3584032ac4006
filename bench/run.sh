#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# on (see bench/README.md). Run from the repository root:
#
#   bash bench/run.sh --workload eval-hot --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's temporary files all
# stay under .bench_build/ in the working directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$(dirname "$0")" && go build -o "$out/nocomm-bench" .)
exec "$out/nocomm-bench" --workdir "$out/work" "$@"
