#!/usr/bin/env sh
# Bench smoke checks at a tiny scale.
#
# 1. Domain-pool bench with a 2-domain pool: exercises the pool, the
#    sharded index build, the parallel candidate fan-out, and the
#    cross-domain determinism check (the bench exits non-zero if
#    outcomes diverge across domain counts).
# 2. Ablations: besides their tables, they assert that ESE, the naive
#    scan and RTA count the same hits at n = 6000, m = 800 over five
#    step sizes, a scale no unit test reaches; a mismatch exits
#    non-zero.
# 3. End-to-end benchmark self-checks: perfbench/e2e.exe runs each
#    BENCHMARK.json workload for one second with per-layer tracing, at
#    seed 1 and at the held-out seed 2027, and exits non-zero when a
#    naive-evaluator recheck disagrees, the traced and untraced answer
#    digests differ, or recovery misses its generation or hot-set hits.
#    Each run's `digest:` line must also match the pinned digest in
#    tools/perfbench-digests.txt, so a change that moves an answer
#    fails here. Timings at this length are noise; only the exit
#    status and the digests count.
#
# Serving timings come from perfbench alone (python3 perfbench/run.py);
# the outcome checks the retired bench suites ran live in
# `dune runtest`.
set -eu
cd "$(dirname "$0")/.."
export REPRO_SCALE="${REPRO_SCALE:-0.02}"
export IQ_DOMAINS="${IQ_DOMAINS:-2}"
dune exec bench/main.exe -- --bench parallel
dune exec bench/main.exe -- --bench ablations
dune build perfbench/e2e.exe
pinned=tools/perfbench-digests.txt
for seed in 1 2027; do
  for w in search_in_un churn_in_un multi_ac_cl; do
    out=$(./_build/default/perfbench/e2e.exe --workload "$w" --seed "$seed" \
      --seconds 1 --trace 1)
    printf '%s\n' "$out"
    got=$(printf '%s\n' "$out" | sed -n 's/^digest: \([0-9a-f]*\).*/\1/p')
    want=$(awk -v w="$w" -v s="$seed" '$1 == w && $2 == s { print $3 }' "$pinned")
    if [ -z "$want" ] || [ "$got" != "$want" ]; then
      echo "bench_smoke: $w seed $seed digest '$got', pinned '$want' ($pinned)" >&2
      exit 1
    fi
  done
done
