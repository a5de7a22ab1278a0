#!/usr/bin/env python3
"""checks.py's size and the memory that importing the CLI leaves resident,
for this checkout and a parent commit.

    python3 tools/import_rss.py [--parent REV]

Extracts REV (default HEAD~1) with `git archive` and copies this checkout's
working tree, as tools/bench_pair.py does, so that neither copy holds a
`__pycache__`.  For each copy it prints:

- the token count of src/supercong/checks.py: the tokens `tokenize` yields,
  without COMMENT and NL tokens;
- the median, over RUNS = 9 fresh processes, of the VmRSS that
  `import supercong.cli` leaves, read from /proc/self/status in the process
  itself.  Every process runs with PYTHONDONTWRITEBYTECODE=1, so it compiles
  the package from source, as the benchmark's processes do; the two sides
  alternate.

Compiling checks.py from source leaves about 0.2 MB more resident once the
module passes a certain size (a little above 7,636 tokens at Python 3.11),
and that shows as `peak_rss_mb` on every benchmark workload.  Not part of
the test suite.  Uses the standard library and Linux's /proc only.
"""

from __future__ import annotations

import argparse
import io
import os
import statistics
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

from bench_pair import copy_worktree, extract, git

CHECKS = Path("src/supercong/checks.py")
RUNS = 9

PROBE = (
    "import supercong.cli\n"
    "for line in open('/proc/self/status'):\n"
    "    if line.startswith('VmRSS:'):\n"
    "        print(int(line.split()[1]))\n"
)


def token_count(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    skip = (tokenize.COMMENT, tokenize.NL)
    return sum(t.type not in skip for t in tokenize.generate_tokens(io.StringIO(text).readline))


def import_rss_kb(tree: Path) -> int:
    """VmRSS in kB of a fresh interpreter after `import supercong.cli` from tree/src."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=tree, env=env,
        capture_output=True, text=True, check=True,
    )
    return int(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~1", metavar="REV")
    args = ap.parse_args(argv)
    parent = git("rev-parse", "--short", args.parent)
    with tempfile.TemporaryDirectory(prefix="import_rss-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        extract(parent, trees["parent"])
        copy_worktree(trees["change"])
        rss: dict[str, list[int]] = {side: [] for side in trees}
        for i in range(RUNS):
            order = list(trees) if i % 2 == 0 else list(reversed(trees))
            for side in order:
                rss[side].append(import_rss_kb(trees[side]))
        tokens = {side: token_count(tree / CHECKS) for side, tree in trees.items()}
    print(f"{'side':8} {'rev':10} {'checks_py_tokens':>16} {'import_vmrss_mb':>16}")
    for side, rev in (("parent", parent), ("change", "worktree")):
        med = statistics.median(rss[side]) / 1024
        print(f"{side:8} {rev:10} {tokens[side]:16d} {med:16.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
