#!/usr/bin/env python3
"""Build the LazyCtrl simulator benchmark from source, then run it.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Run from the root of a source tree.  Every argument is passed on to
perfbench/main.exe (see perfbench/README.md); --smoke runs the smoke test
against the BENCHMARK.json next to it.  Build output goes to the tree's
_build directory and to standard error, so the last line of standard output
is the benchmark's JSON result.  A failed build exits with code 2 and prints
no result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    # The shared dune cache lives outside the tree; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--profile", "release",
         "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    args = sys.argv[1:]
    if args == ["--smoke"]:
        args = ["--smoke", os.path.join(ROOT, "BENCHMARK.json")]
    return subprocess.run([exe] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
