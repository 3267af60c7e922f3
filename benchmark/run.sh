#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it with
# the given arguments. Start it from the repository root:
#
#   bash benchmark/run.sh --workload wc_modes --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (module and build caches, the binary) stays
# under .bench_build/ in the checkout; span files go to benchmark/out/.
set -euo pipefail

root=$PWD
build=$root/.bench_build
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "benchmark/run.sh: start me from the root of an mrapid checkout (no go.mod and internal/ here)" >&2
	exit 2
fi
mkdir -p "$build"

# The benchmark is its own module (benchmark/go.mod) that replaces mrapid
# with the checkout around it, so it measures this tree's code.
(
	cd "$root/benchmark"
	HOME=$build/home GOCACHE=$build/gocache GOPATH=$build/gopath GOTOOLCHAIN=local \
		go build -o "$build/mrapid-benchmark" .
) >&2

exec "$build/mrapid-benchmark" "$@"
