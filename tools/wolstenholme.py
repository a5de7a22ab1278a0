#!/usr/bin/env python3
"""The main checks at the second Wolstenholme prime, p = 2124679.

    python3 tools/wolstenholme.py

Runs `python -m supercong.cli verify --format jsonl --checks MAIN_CHECKS
--primes 2124679..2124679 --jobs 1` on this checkout's src/, with
MAIN_CHECKS the check ids of the main-large workload, and prints the wall
time, the peak RSS of that process (its ru_maxrss, read with os.wait4) and
the sha256 of its stdout.  Exits 1 if the command exits nonzero or the
digest is not EXPECTED_SHA256, 0 otherwise.  At this prime H_{p-1} = 0 mod
p^3, so eq-1-1 is judged at valuation 3.  The run takes 15 to 20 s and
730 MB on a 2-CPU machine; it is not part of the test suite.  Uses the
standard library only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import MAIN_CHECKS  # noqa: E402

PRIME = 2124679

# the stdout of the command at commit 3b52db0
EXPECTED_SHA256 = "e055d55924849c1984fa3c6e4f31ddb22ce6992eea42041aad61515e8b1bd3de"


def main() -> int:
    argv = [
        sys.executable, "-m", "supercong.cli", "verify", "--format", "jsonl",
        "--checks", MAIN_CHECKS, "--primes", f"{PRIME}..{PRIME}", "--jobs", "1",
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    digest = hashlib.sha256(proc.stdout.read()).hexdigest()
    # reap the child here, not in Popen, to read its rusage
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    print(f"wall_s {wall:.2f}")
    print(f"peak_rss_mb {usage.ru_maxrss / 1024:.1f}")
    print(f"stdout_sha256 {digest}")
    print(f"exit {code}")
    if code != 0:
        print("FAIL: the command exited nonzero", file=sys.stderr)
        return 1
    if digest != EXPECTED_SHA256:
        print(f"FAIL: stdout digest differs from {EXPECTED_SHA256}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
