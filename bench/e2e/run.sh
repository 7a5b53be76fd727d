#!/usr/bin/env bash
# Build the server and the benchmark from source, then run the benchmark
# with the given arguments.  Run from the root of a checkout:
#
#   bash bench/e2e/run.sh --workload point-lookup --seed 1 --seconds 12 --trace 0
#
# Build output goes to stderr, so the result stays the last line of stdout.
set -euo pipefail
dune build --root . bin/secdb_cli.exe bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
