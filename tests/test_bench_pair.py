"""tools/bench_pair.py measures the working tree from a clean copy."""

import importlib.util
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
