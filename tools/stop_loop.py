#!/usr/bin/env python3
"""A `--fail-fast` stop of a 2-process pool, run over and over in one process.

    python3 tools/stop_loop.py [--runs N]

Calls cli.main on `verify --checks thm11-full,eq-1-1 --primes 7..31
--t-sign-diagnostic --fail-fast --jobs 2` N times (default 2,000) in this
process, on this checkout's src/, with stdout to a buffer.  thm11-full fails
at p = 7 under the diagnostic sign, so every run stops at its first prime
while later primes are still in flight on the pool, and must return 1.

Before each run faulthandler.dump_traceback_later(DEADLINE_S, exit=True)
is armed, with DEADLINE_S = 60: a run that hangs, say in a pool shutdown
that waits forever, prints every thread's traceback and ends the process
with exit code 1.  Otherwise prints the number of runs and the seconds taken, and
exits 0 if every run returned 1 and 1 if one did not.  Not part of the test
suite.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import faulthandler
import io
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from supercong import cli  # noqa: E402

DEADLINE_S = 60
VERIFY_ARGV = [
    "verify", "--checks", "thm11-full,eq-1-1", "--primes", "7..31",
    "--t-sign-diagnostic", "--fail-fast", "--jobs", "2",
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=2000)
    args = ap.parse_args()
    config = cli.parse_args(VERIFY_ARGV)
    start = time.perf_counter()
    for run in range(1, args.runs + 1):
        faulthandler.dump_traceback_later(DEADLINE_S, exit=True)
        code = cli.main(config, out=io.StringIO())
        faulthandler.cancel_dump_traceback_later()
        if code != 1:
            print(f"FAIL: run {run} returned {code}, not 1", file=sys.stderr)
            return 1
    print(f"runs {args.runs}")
    print(f"seconds {time.perf_counter() - start:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
