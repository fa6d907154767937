#!/usr/bin/env bash
# Build the benchmark and the bwc daemon it drives, then run it.  Run
# from the repository root:
#
#   bash perfbench/run.sh --workload compile --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr so the result stays the last line of
# stdout.  The dune cache is off so the build writes only under _build.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet perfbench/bench.exe bin/bwc.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
