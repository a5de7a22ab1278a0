#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `supercong verify`.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from src/.

--trace 0 times cold processes.  Set-up is the median of several fresh
`python -m supercong.cli list-checks` runs.  Then fresh
`python -m supercong.cli verify --format jsonl ...` processes run back to
back with SUPERCONG_KERNELS=py for about S seconds.  Each is timed from
outside: wall time, time to the first row on stdout, and CPU time and peak
RSS of the process tree from os.wait4 (see launch.py).  A fresh process per
sample matters: the Bernoulli tables are cached module-globally, so a loop
inside one process would time work no user skips.  A sample fails if it exits
nonzero, times out, or its stdout sha256 differs from the digest stored
for the window; failed samples are counted and their timings dropped.

--trace 1 runs four processes on the same window: the plain CLI at
--jobs 1, a traced run at --jobs 1 (see tracer.py), per-prime serial sweeps,
and one sweep at the workload's --jobs.  From these it gives per-layer
times, calls and work counts, the pool's efficiency, and the tracing
overhead.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  Medians, quartiles, sample counts and the run's
context go to stderr and to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_RUNS = 7
PROCESS_TIMEOUT_S = 150.0


@dataclass
class Sample:
    wall: float
    first_row: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes
    ok: bool = True


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["SUPERCONG_KERNELS"] = "py"
    return env


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_process(argv: list[str], timeout: float = PROCESS_TIMEOUT_S) -> Sample:
    """Run argv to completion through launch.py, timed from fork to exit."""
    report_r, report_w = os.pipe()
    deadline = _clock() + timeout
    proc = subprocess.Popen(
        [sys.executable, "-I", "-S", str(HERE / "launch.py"), str(report_w), *argv],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        start_new_session=True, pass_fds=(report_w,),
    )
    os.close(report_w)
    chunks: list[bytes] = []
    first_row_at = None
    fd = proc.stdout.fileno()
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            left = deadline - _clock()
            if left <= 0 or not sel.select(left):
                os.killpg(proc.pid, signal.SIGKILL)
                break
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            if first_row_at is None and b"\n" in chunk:
                first_row_at = _clock()
            chunks.append(chunk)
    proc.stdout.close()
    proc.wait()
    with os.fdopen(report_r, "rb") as fh:
        report = fh.read().split()
    if len(report) != 5:
        # killed on timeout, or the launcher itself failed
        wall = timeout
        return Sample(wall, wall, 0.0, 0.0, proc.returncode or -1, b"".join(chunks))
    start, end, cpu = (float(x) for x in report[:3])
    return Sample(
        wall=end - start,
        first_row=end - start if first_row_at is None else first_row_at - start,
        cpu=cpu,
        rss_mb=int(report[3]) / 1024.0,
        code=int(report[4]),
        stdout=b"".join(chunks),
    )


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "supercong.cli", *args]


def tracer_argv(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "tracer.py"), *args]


def rows_ok(stdout: bytes, digest: str) -> bool:
    """The stored digest matches and every row is pass or skipped."""
    if hashlib.sha256(stdout).hexdigest() != digest:
        return False
    statuses = [json.loads(line)["status"] for line in io.BytesIO(stdout)]
    return bool(statuses) and all(s in ("pass", "skipped") for s in statuses)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def context(workload: Workload, seed: int) -> dict:
    lo, hi, _ = workload.window(seed)
    probe = run_process(
        [sys.executable, "-c",
         "import sys; from supercong import kernels; "
         "print(kernels.backend_name(int(sys.argv[1]) ** 6))", str(hi)]
    )
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = git.stdout.strip() or None
    return {
        "workload": workload.name,
        "seed": seed,
        "primes": f"{lo}..{hi}",
        "backend": probe.stdout.decode().strip() if probe.code == 0 else None,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def timed_run(workload: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    _, _, digest = workload.window(seed)
    setup = [run_process(cli_argv("list-checks")) for _ in range(SETUP_RUNS)]
    setup_ok = all(s.code == 0 and s.stdout for s in setup)

    samples: list[Sample] = []
    deadline = time.perf_counter() + seconds
    while True:
        s = run_process(cli_argv(*workload.verify_argv(seed)))
        s.ok = s.code == 0 and rows_ok(s.stdout, digest)
        s.stdout = b""
        samples.append(s)
        # start another sample while at least half of it fits before the deadline
        typical = statistics.median(x.wall for x in samples)
        if time.perf_counter() + typical / 2 > deadline:
            break

    good = [s for s in samples if s.ok] or samples
    series = {
        "wall_s": ([s.wall for s in good], "s"),
        "first_row_s": ([s.first_row for s in good], "s"),
        "cpu_s": ([s.cpu for s in good], "s"),
        "peak_rss_mb": ([s.rss_mb for s in good], "MB"),
        "setup_s": ([s.wall for s in setup], "s"),
    }
    failed = sum(not s.ok for s in samples)
    result = {
        "correct": setup_ok and failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            name: {"value": statistics.median(vals), "unit": unit}
            for name, (vals, unit) in series.items()
        },
    }
    detail = {
        name: {"q1_median_q3": quartiles(vals), "n": len(vals), "unit": unit}
        for name, (vals, unit) in series.items()
    }
    detail["fail_share"] = failed / len(samples)
    return result, detail


def _child_json(sample: Sample) -> dict | None:
    if sample.code != 0 or not sample.stdout:
        return None
    return json.loads(sample.stdout.splitlines()[-1])


def traced_run(workload: Workload, seed: int, spans_path: Path) -> tuple[dict, dict]:
    _, _, digest = workload.window(seed)
    serial_argv = workload.verify_argv(seed, jobs=1)
    plain = run_process(cli_argv(*serial_argv))
    traced = run_process(tracer_argv("trace", str(spans_path), *serial_argv))
    serial = run_process(tracer_argv("serial", *serial_argv))
    pool = run_process(tracer_argv("pool", *workload.verify_argv(seed)))

    trace, serial_out, pool_out = (_child_json(s) for s in (traced, serial, pool))
    checks = {
        "plain": plain.code == 0 and rows_ok(plain.stdout, digest),
        "trace": bool(trace) and trace["exit"] == 0 and trace["digest"] == digest
        and trace["rows_bad"] == 0,
        "serial": serial_out is not None,
        "pool": pool_out is not None,
    }
    attempted = len(checks)
    failed = sum(not ok for ok in checks.values())
    if failed:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}, {
            "checks": checks
        }
    metrics = layer_metrics(trace, serial_out, pool_out, traced.wall - plain.wall)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "checks": checks,
        "plain_wall_s": plain.wall,
        "traced_wall_s": traced.wall,
        "spans": trace["spans"],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "self_s_by_span": {k: v[1] for k, v in sorted(trace["names"].items())},
        "calls_by_span": {k: v[0] for k, v in sorted(trace["names"].items())},
        # None when supercong.kernels._ckernels is not built
        "compiled": trace["c_seconds"] and {
            f"kernels.{fn}.c_self_s": secs for fn, secs in trace["c_seconds"].items()
        },
        "pool_wall_s": pool_out["wall"],
        "serial_prime_s_total": sum(serial_out["prime_s"]),
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "supercong" / "cli.py").is_file():
        print(f"error: no supercong sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    ctx = context(workload, args.seed)
    if args.trace:
        result, detail = traced_run(workload, args.seed, OUT_DIR / f"{stem}.spans.tsv")
    else:
        result, detail = timed_run(workload, args.seed, args.seconds)
    if ctx["backend"] != "python":
        # SUPERCONG_KERNELS=py must pin the pure-Python kernels
        result["correct"] = False
    report = {"context": ctx, "result": result, "detail": detail}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(ctx), file=sys.stderr)
    for name, d in detail.items():
        print(f"{name}: {json.dumps(d)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
