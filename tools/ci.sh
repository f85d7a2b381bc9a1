#!/usr/bin/env sh
# Full CI gate: build, tier-1 tests (which include the iqlint
# whole-program pass, `dune build @lint`: any finding fails), a hard
# budget on iqlint's summed per-pass wall time (the linter runs on one
# domain, so IQ_DOMAINS does not move it; see DESIGN.md "Whole-program
# lint"), a chaos stage (the resilience suites under a fixed IQ_FAULT
# schedule that injects latency at every backend prepare site, the
# index build and the search iterations — same seed every run, so a
# chaos failure is reproducible locally), a
# torture stage (the MVCC serving suite — random interleavings of
# mutations and concurrent pinned-snapshot readers checked against
# frozen-generation oracles — under the same chaos schedule), a
# crash-recovery stage (the durable suite, whose QCheck oracle kills
# the writer at every WAL and checkpoint injection point, re-run under
# an env-driven fault schedule), and the bench smoke
# checks (the domain-pool bench's cross-domain determinism check, then
# the end-to-end benchmark's own answer checks on all three
# workloads). Any stage failing fails the run.
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest (includes @lint) =="
dune runtest

echo "== iqlint pass timings (hard budget) =="
# Per-pass wall time; the total is a hard gate, so lint cost creep
# (a new whole-program pass, a summary fixpoint that stopped
# converging early) fails CI instead of compounding silently. Raise
# LINT_BUDGET_MS deliberately when a new pass genuinely needs it.
LINT_BUDGET_MS="${LINT_BUDGET_MS:-1000}"
./_build/default/bin/iqlint.exe --timings lib bin bench examples test \
  > _build/iqlint-timings.txt
cat _build/iqlint-timings.txt
awk -v budget="$LINT_BUDGET_MS" '
  /^iqlint: pass / { total += $(NF - 1) }
  END {
    printf "iqlint: total lint time %.0f ms (hard budget %d ms)\n", total, budget
    if (total > budget) {
      print "iqlint: ERROR: lint exceeded its time budget"
      exit 1
    }
  }' _build/iqlint-timings.txt

echo "== chaos: resilience, engine and hotpath suites under a fixed IQ_FAULT =="
# A latency-only schedule: every engine built from the environment
# consults the fault sites and injects (so the schedule, counters and
# injection paths all run), but no outcome changes — the suites'
# exactness assertions still hold. The seed is fixed, so a chaos
# failure here reproduces byte-for-byte locally. Site patterns match
# exactly or by a trailing `*`, so each backend's prepare site is
# named (IQ_FAULT rejects a `*` anywhere else).
CHAOS_FAULT='seed=42;backend.ese.prepare:latency(1)@0.4;backend.rta.prepare:latency(1)@0.4;backend.scan.prepare:latency(1)@0.4;index.build:latency(1)@0.5;search.iteration:latency(1)@0.1'
IQ_FAULT="$CHAOS_FAULT" ./_build/default/test/test_main.exe test resilience
IQ_FAULT="$CHAOS_FAULT" ./_build/default/test/test_main.exe test core.engine
# The band-vs-Algorithm-2 engine oracle, with latency at every backend
# prepare site: the prune flag reaches the backend through the same
# failover path the chaos schedule exercises.
IQ_FAULT="$CHAOS_FAULT" ./_build/default/test/test_main.exe test core.hotpath

echo "== torture: MVCC serving under mixed read/write + chaos =="
# The serve suite's QCheck oracle interleaves a writer with pinned
# readers on 1 and 4 domains and replays every recorded answer against
# a fresh engine frozen at that reader's generation. Running it under
# the latency-only chaos schedule exercises the injection sites on
# the snapshot prepare path too. Fixed seed: failures reproduce.
IQ_FAULT="$CHAOS_FAULT" ./_build/default/test/test_main.exe test serve

echo "== crash recovery: durable suite under a crash-fault schedule =="
# The durable suite runs twice. Bare: the in-suite QCheck oracle
# crashes random traces at every injection point (append/fsync
# process death, kill-mid-write torn frames, checkpoint write/rename
# crashes) with its own fixed per-case schedules — that is the real
# kill coverage. Then under a latency-only IQ_FAULT: every store
# attached without an explicit schedule picks the env one up, so the
# env-driven fault plumbing the sessions CLI relies on consults the
# WAL sites during the whole suite without changing any outcome —
# recovery assertions must hold either way. Fixed seed: reproducible.
./_build/default/test/test_main.exe test durable
CRASH_FAULT='seed=7;wal.fsync:latency(1)@0.2'
IQ_FAULT="$CRASH_FAULT" ./_build/default/test/test_main.exe test durable

echo "== bench smoke =="
tools/bench_smoke.sh

echo "== ci: all stages green =="
