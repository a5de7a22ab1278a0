"""tools/bench_pair.py measures the working tree from a clean copy."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo, *args):
    subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True)


def test_change_side_copy_has_the_working_tree_source_and_no_bytecode(tmp_path, monkeypatch):
    # a throwaway repository, so the copy does not depend on where the suite runs
    repo = tmp_path / "repo"
    pkg = repo / "src" / "pkg"
    (pkg / "__pycache__").mkdir(parents=True)
    (repo / "perfbench").mkdir()
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "perfbench" / "run.py").write_text("print('run')\n")
    (pkg / "tracked.py").write_text("X = 1\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    # an edit after staging, a file git does not know yet, and bytecode
    (pkg / "tracked.py").write_text("X = 2\n")
    (pkg / "untracked.py").write_text("Y = 1\n")
    (pkg / "__pycache__" / "tracked.cpython-311.pyc").write_bytes(b"\0")
    bench_pair = _bench_pair()
    monkeypatch.setattr(bench_pair, "ROOT", repo)
    copy = tmp_path / "copy"
    bench_pair.copy_worktree(copy)
    assert bench_pair.src_sha256(copy) == bench_pair.src_sha256(repo)
    assert (copy / "src" / "pkg" / "tracked.py").read_text() == "X = 2\n"
    assert (copy / "src" / "pkg" / "untracked.py").is_file()
    assert (copy / "perfbench" / "run.py").is_file()
    assert not any((copy / "src").rglob("__pycache__"))
    assert not any((copy / "src").rglob("*.pyc"))


def _bench_files():
    return {path.name: path.read_bytes() for path in ROOT.glob("BENCH_*.json")}


@pytest.mark.parametrize("argv", [
    ["--workload", "catalog-smal"],
    ["--workload", "catalog-small", "--seeds", "0,x"],
    ["--workload", "catalog-small", "--seeds", ""],
])
def test_bad_input_exits_2_before_any_run(monkeypatch, capsys, argv):
    bench_pair = _bench_pair()

    def no_tree(*args):
        raise AssertionError("a tree was extracted for bad input")

    monkeypatch.setattr(bench_pair, "extract", no_tree)
    monkeypatch.setattr(bench_pair, "copy_worktree", no_tree)
    before = _bench_files()
    with pytest.raises(SystemExit) as exc:
        bench_pair.main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert _bench_files() == before


def test_claim_rule_on_a_synthetic_record(tmp_path, monkeypatch, capsys):
    # ten pairs of made-up runs; the parent's wall_s spreads 1.00..1.09
    parent = [1.0 + i / 100 for i in range(10)]
    runs = {
        # won 9 of 10, median 0.2 below the parent's against a spread of 0.045
        "wall_s": [x - 0.2 for x in parent[:9]] + [parent[9] + 1],
        # won 8 of 10 by as much
        "cpu_s": [x - 0.2 for x in parent[:8]] + [x + 1 for x in parent[8:]],
        # won all 10, by less than the parent's spread
        "peak_rss_mb": [x - 0.01 for x in parent],
        # ties count for neither side
        "setup_s": parent,
    }
    results = {
        "parent": iter([{name: x for name in runs} for x in parent]),
        "change": iter([dict(zip(runs, values)) for values in zip(*runs.values())]),
    }
    bench_pair = _bench_pair()
    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pair, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_pair, "extract", lambda rev, dest: dest.mkdir())
    monkeypatch.setattr(bench_pair, "copy_worktree", lambda dest: dest.mkdir())
    monkeypatch.setattr(bench_pair, "run_once", lambda tree, *args: next(results[tree.name]))
    assert bench_pair.main(["--workload", "catalog-small", "--pairs", "10"]) == 0
    (record,) = json.loads((tmp_path / "BENCH_catalog-small.json").read_text())
    got = {name: (m["change_won"], m["claim_holds"]) for name, m in record["metrics"].items()}
    assert got == {
        "wall_s": (9, True),
        "cpu_s": (8, False),
        "peak_rss_mb": (10, False),
        "setup_s": (0, False),
    }
    err = capsys.readouterr().err
    assert "change won 9 of 10; claim rule holds" in err
    assert err.count("claim rule fails") == 3
