#!/usr/bin/env sh
# Bench smoke checks at a tiny scale.
#
# 1. Domain-pool bench with a 2-domain pool: exercises the pool, the
#    sharded index build, the parallel candidate fan-out, and the
#    cross-domain determinism check (the bench exits non-zero if
#    outcomes diverge across domain counts).
# 2. End-to-end benchmark self-checks: perfbench/e2e.exe runs each
#    BENCHMARK.json workload for one second with per-layer tracing and
#    exits non-zero when a naive-evaluator recheck disagrees, the
#    traced and untraced answer digests differ, or recovery misses its
#    generation or hot-set hits. Timings at this length are noise;
#    only the exit status counts.
#
# Serving timings come from perfbench alone (python3 perfbench/run.py);
# the outcome checks the retired bench suites ran live in
# `dune runtest`.
set -eu
cd "$(dirname "$0")/.."
export REPRO_SCALE="${REPRO_SCALE:-0.02}"
export IQ_DOMAINS="${IQ_DOMAINS:-2}"
dune exec bench/main.exe -- --bench parallel
dune build perfbench/e2e.exe
for w in search_in_un churn_in_un multi_ac_cl; do
  ./_build/default/perfbench/e2e.exe --workload "$w" --seconds 1 --trace 1
done
