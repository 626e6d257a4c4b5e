#!/usr/bin/env python3
"""Benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py ... --held-out     # recheck on a reserved seed

Builds the checker (bin/smv_check.exe) and the benchmark runner
(perfbench/perfbench.exe) from source with dune, then hands over to the
runner, which generates the inputs from the seed, runs the workload,
checks every output and prints one metric per line followed by a final
JSON result line.  Workloads: cli-verdict, cli-evidence, serve-mixed.
Scratch files and results go to .perfbench_work/ in the checkout.
"""

import os
import shutil
import subprocess
import sys

# The sources the benchmark builds and reads; without them there is
# nothing to measure.
REQUIRED = [
    "dune-project",
    "bin/smv_check.ml",
    "lib",
    "bench/workloads.ml",
    "examples/models",
    "perfbench/dune",
]

CHECKER = "_build/default/bin/smv_check.exe"
RUNNER = "_build/default/perfbench/perfbench.exe"


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print("perfbench: not the root of a checkout (missing: %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    build = subprocess.run(
        dune + ["build", "--root", ".", CHECKER.replace("_build/default/", ""),
                RUNNER.replace("_build/default/", "")],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.execv(RUNNER, [RUNNER, "--checker", CHECKER] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
