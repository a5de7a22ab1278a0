"""Shared fixtures; the acceptance verdicts are replayed after the run."""

import importlib.util
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

_CKERNELS_C = Path(__file__).resolve().parents[1] / "src/supercong/kernels/_ckernels.c"


@pytest.fixture(scope="session")
def ckernels(tmp_path_factory):
    """The shipped _ckernels.c, compiled with gcc into a temporary directory.

    The module is loaded from there under its package name but is not put
    into sys.modules or into supercong.kernels; tests that want the
    dispatcher to route to it monkeypatch kernels._ckernels themselves.
    Skips when gcc or Python.h is missing.
    """
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("gcc not found: cannot build the compiled kernels")
    include = sysconfig.get_paths()["include"]
    if not (Path(include) / "Python.h").is_file():
        pytest.skip(f"Python.h not found in {include}")
    out = tmp_path_factory.mktemp("ckernels") / (
        "_ckernels" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    build = subprocess.run(
        [gcc, "-O2", "-shared", "-fPIC", f"-I{include}", str(_CKERNELS_C), "-o", str(out)],
        capture_output=True,
        text=True,
    )
    if build.returncode != 0:
        pytest.fail(f"compiling {_CKERNELS_C.name} failed:\n{build.stderr}")
    spec = importlib.util.spec_from_file_location("supercong.kernels._ckernels", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance-criterion verdict lines after the test run."""
    import sys

    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    if mod is None:
        return
    CRITERION_LINES = getattr(mod, "CRITERION_LINES", [])
    if not CRITERION_LINES:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for line in sorted(CRITERION_LINES):
        terminalreporter.line(line)
