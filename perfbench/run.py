#!/usr/bin/env python3
"""Figure-cell benchmark of the DRRS simulator.

Builds the benchmark (Release) from the source tree it sits in, then runs
one workload and relays the result. Run from the repository root:

    python3 perfbench/run.py --workload q7-window --seed 20250705 \
        --seconds 12 --trace 0
    python3 perfbench/run.py --self-test     # the oracle's own tests

Workloads: q7-window, q8-migrate, twitch-observed (see perfbench/README.md).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; build output goes to stderr. The build lives
in .bench_build/ at the repository root.

Exit status: 0 ok, 1 the build or the benchmark failed, 2 usage error.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["q7-window", "q8-migrate", "twitch-observed"]


def build(targets):
    """Configure once, then bring `targets` up to date. Output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no simulator source tree next to perfbench/",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
           "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20250705)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if args.self_test:
        if not build(["perfbench_oracle_test"]):
            return 1
        return subprocess.run(
            [os.path.join(BUILD, "perfbench_oracle_test")]).returncode

    if not build(["perfbench_cells"]):
        return 1
    sys.stdout.flush()
    cmd = [os.path.join(BUILD, "perfbench_cells"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    return 0 if subprocess.run(cmd, cwd=ROOT).returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
