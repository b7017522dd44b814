#!/usr/bin/env python3
"""Build the benchmark and run one of its workloads.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root. It builds benchmark/main.exe and
bin/tybec.exe with dune, then replaces itself with main.exe, which runs
the workload in a supervised child process (cleared TYTRA_* variables,
own process group, time limit). The last line of standard output is
the workload's JSON result; build output and progress go to standard
error. The exit code is non-zero, and no result is printed, when the
build fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
EXE = os.path.join("_build", "default", "benchmark", "main.exe")
TYBEC = os.path.join("_build", "default", "bin", "tybec.exe")


def main():
    if shutil.which("dune") is None:
        sys.exit("run.py: dune not found on PATH")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "benchmark/main.exe", "bin/tybec.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:] + ["--tybec", TYBEC])


if __name__ == "__main__":
    main()
