"""tools/bench_pair.py measures the working tree from a clean copy."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_change_side_copy_has_the_working_tree_source_and_no_bytecode(tmp_path):
    bench_pair = _bench_pair()
    bench_pair.copy_worktree(tmp_path)
    assert bench_pair.src_sha256(tmp_path) == bench_pair.src_sha256(ROOT)
    assert (tmp_path / "perfbench" / "run.py").is_file()
    assert not any((tmp_path / "src").rglob("__pycache__"))
    assert not any((tmp_path / "src").rglob("*.pyc"))


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
