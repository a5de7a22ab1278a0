"""Tests of the benchmark itself: python3 -m pytest perfbench

Traced runs use one small window per workload regime, so the same layers
run as in the full workloads at a fraction of the time.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import KERNEL_FNS, layer_metrics, replay_compiled  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REGIME_WINDOWS = {
    "catalog-small": (7, 60),
    "catalog-bernoulli": (991, 997),
    "main-large": (10007, 10007),
}

# span names that must record calls on each workload
LAYERS = {
    "catalog-small": [f"kernels.{f}" for f in KERNEL_FNS] + [
        "bernoulli.bernoulli", "bernoulli.x_constant", "bernoulli.fermat_quotient",
        "harmonic.mhs", "binomial.s_sum", "binomial.reduce_point",
        "padic.__init__", "padic.congruent_mod", "checks.prime", "checks.evaluate",
        "checks.lem23_scan", "checks.const.x", "checks.const.b_pm3", "checks.const.q2",
        "checks.sweep", "cli.main",
    ],
    "catalog-bernoulli": [
        "kernels.bernoulli_scaled", "bernoulli.bernoulli", "bernoulli.x_constant",
        "checks.const.x", "checks.prime", "cli.main",
    ],
    "main-large": [
        "kernels.inverse_table", "kernels.mhs_sum", "kernels.weighted_sum",
        "kernels.s_sum", "kernels.central_sum", "harmonic.mhs", "binomial.s_sum",
        "binomial.reduce_point", "padic.__init__", "checks.prime", "checks.const.x",
        "checks.sweep", "cli.main",
    ],
}


def _verify_argv(name: str) -> list[str]:
    lo, hi = REGIME_WINDOWS[name]
    return ["verify", "--format", "jsonl", "--checks", WORKLOADS[name].checks,
            "--primes", f"{lo}..{hi}", "--jobs", "1"]


def _trace(name: str, tmp_path: Path) -> dict:
    sample = run.run_process(
        run.tracer_argv("trace", str(tmp_path / f"{name}.tsv"), *_verify_argv(name))
    )
    assert sample.code == 0
    out = json.loads(sample.stdout.splitlines()[-1])
    assert out["exit"] == 0 and out["rows_bad"] == 0
    return out


def _counts(trace: dict) -> dict:
    return {
        "calls": {k: v[0] for k, v in trace["names"].items()},
        "counters": trace["counters"],
        "inverse_distinct": trace["inverse_distinct"],
        "primes": len(trace["prime_s"]),
    }


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("spans")
    return {name: _trace(name, tmp) for name in REGIME_WINDOWS}


@pytest.mark.parametrize("name", sorted(REGIME_WINDOWS))
def test_every_listed_layer_records_calls(traces, name):
    calls = {k: v[0] for k, v in traces[name]["names"].items()}
    assert [layer for layer in LAYERS[name] if calls.get(layer, 0) == 0] == []


def test_names_imported_by_name_are_rebound(traces):
    sites = set(traces["catalog-small"]["sites"])
    for site in (
        "supercong.checks.mhs", "supercong.checks.s_sum", "supercong.checks.bernoulli",
        "supercong.checks.x_constant", "supercong.checks.fermat_quotient",
        "supercong.checks.reduce_point", "supercong.bernoulli.mhs", "supercong.cli.sweep",
    ):
        assert site in sites


@pytest.mark.parametrize("name", sorted(REGIME_WINDOWS))
def test_self_times_sum_to_root(traces, name):
    trace = traces[name]
    assert trace["roots"] == ["cli.main"]
    root_total = trace["names"]["cli.main"][2]
    self_total = sum(v[1] for v in trace["names"].values())
    assert self_total == pytest.approx(root_total, rel=1e-9, abs=1e-9)


def test_bernoulli_layer_idle_above_table_limit(traces):
    calls = {k: v[0] for k, v in traces["main-large"]["names"].items()}
    assert calls["kernels.bernoulli_scaled"] == 0
    assert calls["bernoulli.bernoulli"] == 0


def test_bernoulli_table_dominates_below_limit(traces):
    names = traces["catalog-bernoulli"]["names"]
    assert names["kernels.bernoulli_scaled"][1] >= 0.5 * names["cli.main"][2]


@pytest.mark.parametrize("name", sorted(REGIME_WINDOWS))
def test_counters_repeat_exactly(traces, tmp_path, name):
    assert _counts(_trace(name, tmp_path)) == _counts(traces[name])


@pytest.mark.parametrize("name", sorted(REGIME_WINDOWS))
def test_layer_metrics_match_declared_per_layer(traces, name):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    serial = {"prime_s": [0.5, 0.25], "result_bytes": 100}
    pool = {"wall": 0.5, "jobs": 2}
    got = layer_metrics(traces[name], serial, pool, trace_overhead_s=0.1)
    assert {k: u for k, (_, u) in got.items()} == {m["name"]: m["unit"] for m in declared}
    assert got["checks.pool.efficiency"][0] == pytest.approx(0.75)


def test_windows_and_digests_are_well_formed():
    for w in WORKLOADS.values():
        assert w.window(0) == w.windows[0]
        assert w.window(len(w.windows)) == w.windows[0]
        assert len({(lo, hi) for lo, hi, _ in w.windows}) == len(w.windows)
        for _, _, digest in w.windows:
            assert len(digest) == 64 and int(digest, 16) >= 0


def test_digest_gate_rejects_changed_or_failing_rows():
    good = b'{"check": "a", "status": "pass"}\n{"check": "b", "status": "skipped"}\n'
    digest = hashlib.sha256(good).hexdigest()
    assert run.rows_ok(good, digest)
    assert not run.rows_ok(good.replace(b'"a"', b'"c"'), digest)
    failing = b'{"check": "a", "status": "fail"}\n'
    assert not run.rows_ok(failing, hashlib.sha256(failing).hexdigest())
    assert not run.rows_ok(b"", hashlib.sha256(b"").hexdigest())


def _pykernels():
    sys.path.insert(0, str(HERE.parent / "src"))
    from supercong.kernels import pykernels

    return pykernels


def test_compiled_replay_skips_wide_moduli_and_checks_results():
    py = _pykernels()
    p = 101
    small, wide = p**6, 1 << 90
    log = {
        "inverse_table": [((p - 1, p, small), {}, py.inverse_table(p - 1, p, small)),
                          ((p - 1, p, wide), {}, None)],
        "mhs_sum": [(([1, 2], p - 1, p, small, py.inverse_table(p - 1, p, small)), {},
                     py.mhs_sum((1, 2), p - 1, p, small, py.inverse_table(p - 1, p, small)))],
    }
    same = SimpleNamespace(MAX_MODULUS_BITS=84, inverse_table=py.inverse_table,
                           mhs_sum=py.mhs_sum)
    assert set(replay_compiled(same, log)) == {"inverse_table", "mhs_sum"}
    broken = SimpleNamespace(MAX_MODULUS_BITS=84, inverse_table=lambda n, p, m: [],
                             mhs_sum=py.mhs_sum)
    with pytest.raises(AssertionError, match="backend mismatch in inverse_table"):
        replay_compiled(broken, log)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "main-large", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
