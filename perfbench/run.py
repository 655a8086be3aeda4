#!/usr/bin/env python3
"""Build the benchmark from source and measure one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload fig4-large --seed 2008 --seconds 20 --trace 0

The benchmark executable is built with dune into .bench_build/ (the dune
cache is disabled, so nothing is written outside the tree), then
`perf.exe run` measures the workload; its last line of standard output
is the result JSON. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.abspath(os.path.join(".bench_build", "dune"))
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perf.exe")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    # The benchmark links the solver libraries under lib/; without the
    # source tree there is nothing to measure.
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of the mapqn source tree "
                 "(dune-project and lib/ not found)")

    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--display", "quiet", "./perfbench/perf.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % build.returncode)

    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
