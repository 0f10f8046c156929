#!/usr/bin/env bash
# Builds the benchmark harness and runs it. Run from the repository
# root; every argument is passed to the harness (see bench/README.md):
#
#   bash bench/run.sh -workload compile-light -seed 0 -seconds 20 -trace 0
#
# The harness binary, the Go build cache and all scratch files live in
# .bench_build/ under the root, so a run reads and writes nothing
# outside the checkout, and never reaches the network.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "run.sh: run from the repository root (it needs go.mod and bench/go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
