#!/usr/bin/env python3
"""Builds the benchmark from source and runs one measurement.

    python3 perfbench/run.py --workload warmup|steady|serve-churn \
        --seed N --seconds S --trace 0|1

Run it from the root of a SelVM source tree. The build goes to
.bench_build/ with the release profile and without the shared dune cache;
the measurement itself is perfbench/main.ml (see README.md). The last line
of stdout is the result JSON; the exit code is the benchmark's.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"


def main() -> int:
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        print(
            "perfbench: no SelVM source tree here (dune-project and lib/ are missing)",
            file=sys.stderr,
        )
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
