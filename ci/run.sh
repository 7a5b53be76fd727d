#!/usr/bin/env bash
# Full CI gate. Run from the repository root:
#
#   ci/run.sh
#
# Mirrors .github/workflows/ci.yml so the same gate runs locally and in CI.
# The dev profile keeps dune's default warnings-as-errors on the libraries.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n=== %s\n' "$*"; }

step "hygiene: no build artifacts tracked by git"
bad=$(git ls-files | grep -E '(^|/)_build/|\.install$|(^|/)BENCH_[A-Za-z0-9_]*\.json$' || true)
if [ -n "$bad" ]; then
  echo "generated artifacts are tracked by git:" >&2
  echo "$bad" >&2
  exit 1
fi

step "build"
dune build

step "unit + property + cram suite"
dune runtest

step "known-answer vectors"
dune build @kat

step "perf equivalence + planner byte-identity checks"
# includes the planner gate: every candidate plan (forced via exec_plan),
# the adaptive choice and the lock-free snapshot path must return
# byte-identical rows for point, range, join and order-by shapes
dune exec bench/perf.exe -- --fast --check

step "leakage bounds (range index attack bench, fixed seeds)"
dune build @leakage

step "crash-safety matrix (oplog and pager crash matrices, fsck, replication crash)"
dune exec -- test/test_main.exe test 'storage:crash|storage:fsck|repl:crash'

step "serve smoke (networked client/server end to end)"
ci/serve_smoke.sh

step "replication smoke (primary + 2 replicas, kill -9, point-in-time restore)"
ci/replication_smoke.sh

step "e2e bench smoke (every workload at 1,000 rows over real sockets)"
# byte-identity of every reply against Server.dispatch, plus the kill -9
# durability check on insert-durable; exits non-zero on any failure
dune build @bench/e2e/bench-smoke

step "CI gate passed"
