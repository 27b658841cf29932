#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#   bash bench/perf/run.sh --workload NAME --seed N [--seconds S] [--trace 0|1]
# Build output goes to stderr; stdout is the benchmark's alone. The shared
# dune cache is off so that nothing is written outside the checkout.
set -eu
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
