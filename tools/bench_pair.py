#!/usr/bin/env python3
"""Paired benchmark of this checkout against a parent commit.

    python3 tools/bench_pair.py --workload NAME [--parent REV] [--pairs N]
        [--seeds 0,1,2] [--seconds S]

Extracts REV (default HEAD~1) with `git archive` into a temporary
directory, and copies this checkout's working tree next to it: every file
git tracks or would track, as it is on disk, so uncommitted edits are
measured and no `__pycache__` is carried over.  Then runs
`perfbench/run.py --workload NAME --seed SEED --seconds S` alternately in
the two copies, N times each, with PYTHONDONTWRITEBYTECODE=1, so that every
process compiles its source on both sides.  Pair i uses seed
SEEDS[i mod len(SEEDS)], and the side that runs first alternates from pair
to pair.  A pair is dropped when either side exits nonzero, reports
`correct: false` or has failed samples.

Appends one record to BENCH_<NAME>.json at the root of this checkout (a
JSON list, created if missing): both commits, each side's src_sha256 (the
hash of its src/ that perfbench/run.py records, so that a record made from
an uncommitted working tree still names the code it measured), the seeds,
seconds and pair counts, each side's median and quartiles of every
end-to-end metric over the kept pairs, for each metric the number of
pairs in which the change read lower (ties count for neither side) and
whether a gain may be claimed, and whether either copy's src/ held a
`__pycache__` after the runs.  A gain may be claimed when the change read
lower in at least 9 of every 10 kept pairs and its median is below the
parent's by more than the parent's interquartile spread.  A summary goes
to stderr.  An unknown workload or malformed seeds exit with status 2
before any tree is extracted.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """Write the tree of rev into dest."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest)


def copy_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files into dest."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.split("\0")):
        path = ROOT / name
        if path.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, dest / name)


def src_sha256(tree: Path) -> str:
    """sha256 of tree's src/, computed as perfbench/run.py's context() does."""
    src = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            src.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return src.hexdigest()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """perfbench/run.py's result in tree, or None if the run is not usable."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not result.get("correct") or result.get("failed", 1) > 0:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def compare(before: list[float], after: list[float]) -> dict:
    """Both sides' summary of one lower-is-better metric over the kept pairs,
    the pairs the change won, and whether the claim rule holds."""
    parent, change = summary(before), summary(after)
    won = sum(a < b for a, b in zip(after, before))
    return {
        "parent": parent,
        "change": change,
        "change_won": won,
        "claim_holds": 10 * won >= 9 * len(before)
        and parent["median"] - change["median"] > parent["q3"] - parent["q1"],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--parent", default="HEAD~1", metavar="REV")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", default="0")
    ap.add_argument("--seconds", type=float, default=12.0)
    args = ap.parse_args(argv)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        ap.error(f"bad --seeds {args.seeds!r}: want comma-separated integers")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    parent_commit = git("rev-parse", args.parent)
    change_commit = git("describe", "--always", "--dirty", "--abbrev=40")
    sides: dict[str, list[dict]] = {"parent": [], "change": []}
    dropped = 0
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        trees = {side: Path(tmp) / side for side in sides}
        extract(parent_commit, trees["parent"])
        copy_worktree(trees["change"])
        hashes = {side: src_sha256(tree) for side, tree in trees.items()}
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {side: run_once(trees[side], args.workload, seed, args.seconds)
                   for side in order}
            if None in got.values():
                dropped += 1
                print(f"pair {i}: seed {seed}, dropped", file=sys.stderr)
                continue
            for side in sides:
                sides[side].append(got[side])
            print(f"pair {i}: seed {seed}, wall_s {got['parent'].get('wall_s')} -> "
                  f"{got['change'].get('wall_s')}", file=sys.stderr)
        bytecode = {side: any((tree / "src").rglob("__pycache__"))
                    for side, tree in trees.items()}

    kept = len(sides["parent"])
    metrics = {}
    if kept:
        for name in sides["parent"][0]:
            metrics[name] = compare([run[name] for run in sides["parent"]],
                                    [run[name] for run in sides["change"]])
    record = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "parent_commit": parent_commit,
        "change_commit": change_commit,
        "src_sha256": hashes,
        "bytecode_cache": bytecode,
        "seeds": seeds,
        "seconds": args.seconds,
        "pairs": kept,
        "pairs_dropped": dropped,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "metrics": metrics,
    }
    path = ROOT / f"BENCH_{args.workload}.json"
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    path.write_text(json.dumps(records, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name}: parent {m['parent']['median']:.4g} [{m['parent']['q1']:.4g}, "
              f"{m['parent']['q3']:.4g}] -> change {m['change']['median']:.4g} "
              f"[{m['change']['q1']:.4g}, {m['change']['q3']:.4g}], change won "
              f"{m['change_won']} of {kept}; claim rule "
              f"{'holds' if m['claim_holds'] else 'fails'}", file=sys.stderr)
    return 0 if kept else 1


if __name__ == "__main__":
    sys.exit(main())
