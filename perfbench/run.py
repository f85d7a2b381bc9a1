#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/e2e.exe with dune (the first run in a checkout
compiles the program from source), runs it, and passes its output
through. The last line of output is the result JSON; see
perfbench/README.md for the workloads and metrics. Exits non-zero
without a result when the program's sources are missing or the build
fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("search_in_un", "churn_in_un", "multi_ac_cl")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--domains", type=int, default=1)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s under %s: run from a checkout of the repository" % (needed, ROOT))
    dune = shutil.which("dune")
    if dune is None and os.environ.get("OPAM_SWITCH_PREFIX"):
        dune = shutil.which("dune", path=os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin"))
    if dune is None:
        fail("dune is not on PATH")

    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ROOT, "./perfbench/e2e.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 1)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed", 1)

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "e2e.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--domains", str(args.domains)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S, 1)
    sys.stdout.write(run.stdout)
    sys.stderr.write(run.stderr)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
