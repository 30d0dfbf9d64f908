#!/usr/bin/env python3
"""Build and run the Canon end-to-end / per-layer benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload figures_cold|sweep_warm|service_mix \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the simulator sources
under src/ and bench/ plus the perfbench program) into $CARGO_TARGET_DIR, or
.bench_build when it is unset; later runs reuse that build. The last
line of stdout is the result JSON of perfbench/src/main.cc. Build
output goes to stderr.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("figures_cold", "sweep_warm", "service_mix")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("run.py: --seed must be >= 0 and --seconds > 0")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "engine", "engine.hh")):
        sys.exit("run.py: no simulator sources next to perfbench/ "
                 "(run from the root of a full checkout)")

    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    build = os.path.join(build_root, "perfbench")
    binary = os.path.join(build, "perfbench")
    steps = [["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build, "--target", "perfbench", "-j", "4"]]
    if os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build step failed: " + " ".join(cmd))

    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--root", root,
           "--work-dir", os.path.join(build_root, "work-" + args.workload),
           "--trace-out", os.path.join(build_root,
                                       "trace-%s.json" % args.workload),
           "--expected", os.path.join(here, "expected.txt")]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
