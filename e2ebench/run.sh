#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload metro --seed 1 --seconds 10 --trace 0
#   bash e2ebench/run.sh compare --a <checkout> --b <checkout> --pairs 10
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory (Go's build cache and config included).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
