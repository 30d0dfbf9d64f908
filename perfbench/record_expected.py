#!/usr/bin/env python3
"""Regenerate perfbench/expected.txt from the current program.

    python3 perfbench/record_expected.py > perfbench/expected.txt

Runs every workload once per input family (sweep_warm and service_mix
draw their inputs from seed % 16) with a short timed part and prints
the values the output check observed. Only a change that is meant to
alter simulated work or rendered output may re-record them, and it
must say so.
"""

import os
import subprocess
import sys

VARIANTS = 16


def observed(workload, seed):
    here = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, os.path.join(here, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0.1", "--trace", "0"]
    err = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True).stderr
    lines = [l[len("observed: "):] for l in err.splitlines()
             if l.startswith("observed: ")]
    if not lines:
        sys.exit("record_expected.py: %s seed %d observed nothing:\n%s"
                 % (workload, seed, err))
    return lines


def main():
    print("# Recorded outputs of the benchmark workloads; see "
          "perfbench/README.md.")
    print("# Regenerate with perfbench/record_expected.py.")
    for line in observed("figures_cold", 0):
        print(line)
    for workload in ("sweep_warm", "service_mix"):
        for v in range(VARIANTS):
            for line in observed(workload, v):
                print(line)


if __name__ == "__main__":
    main()
