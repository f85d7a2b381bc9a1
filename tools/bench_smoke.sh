#!/usr/bin/env sh
# Bench smoke checks at a tiny scale.
#
# 1. Domain-pool bench with a 2-domain pool: exercises the pool, the
#    sharded index build, the parallel candidate fan-out, and the
#    cross-domain determinism check (the bench exits non-zero if
#    outcomes diverge across domain counts).
# 2. Hot-path bench: flat SoA kernels vs the boxed baselines, the
#    bounded top-k prefix selection vs a full tuple sort, and
#    dominance-layer pruning vs the full rival set — exits non-zero if
#    any checksum diverges or a fast path is slower than its baseline
#    beyond noise; records ratios in BENCH_hotpath.json.
# 3. Engine bench: the serving facade vs direct search calls — exits
#    non-zero if their outcomes diverge, and records the facade
#    overhead in BENCH_engine.json.
# 4. Resilience bench: armed-budget overhead vs the clean path (exits
#    non-zero above the 2% budget) and the anytime degradation curve,
#    recorded in BENCH_resilience.json.
# 5. MVCC bench: snapshot-read overhead of a serving session vs the
#    direct engine call (exits non-zero above the few-percent gate)
#    and the pinned-generation copy-on-write memory ceiling, recorded
#    in BENCH_mvcc.json.
# 6. Durability bench: batch-mode WAL append overhead vs unjournaled
#    mutations (exits non-zero above the 5% gate), crash-recovery
#    replay throughput, and the checkpoint-image size ceiling,
#    recorded in BENCH_durability.json.
# 7. End-to-end benchmark self-checks: perfbench/e2e.exe runs each
#    BENCHMARK.json workload for one second with per-layer tracing and
#    exits non-zero when a naive-evaluator recheck disagrees, the
#    traced and untraced answer digests differ, or recovery misses its
#    generation or hot-set hits. Timings at this length are noise;
#    only the exit status counts.
#
# Steps 1-6 are also available as a dune alias: `dune build @bench-smoke`.
set -eu
cd "$(dirname "$0")/.."
export REPRO_SCALE="${REPRO_SCALE:-0.02}"
export IQ_DOMAINS="${IQ_DOMAINS:-2}"
dune exec bench/main.exe -- --bench parallel
dune exec bench/main.exe -- --bench hotpath
dune exec bench/main.exe -- --bench engine
dune exec bench/main.exe -- --bench resilience
dune exec bench/main.exe -- --bench mvcc
dune exec bench/main.exe -- --bench durability
dune build perfbench/e2e.exe
for w in search_in_un churn_in_un multi_ac_cl; do
  ./_build/default/perfbench/e2e.exe --workload "$w" --seconds 1 --trace 1
done
