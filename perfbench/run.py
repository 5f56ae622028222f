#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/perfbench.exe from
source with dune (release profile, build directory .bench_build, no
shared dune cache, so nothing is written outside the checkout), then
runs it with the same arguments. The benchmark's report goes to
stdout; its last line is the JSON result. A traced run also writes its
spans to .bench_build/spans/<workload>-seed<N>.tsv.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # The program is built from the checkout's own sources.
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the root of a checkout: %s is missing" % needed)

    env = dict(os.environ, DUNE_CACHE="disabled", DUNE_BUILD_DIR=BUILD_DIR)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/perfbench.exe"],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace == 1:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
