#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload rx-1x4-mcs0 --seed 1 --seconds 10 --trace 0
#
# The build cache, the compiler's temporary files and the binary live in
# .bench_build/ under the root, so the build writes nowhere else.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
