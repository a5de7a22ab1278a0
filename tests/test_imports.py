"""Every imported name is used.

No linter runs on this repository, so this test reads each module under
src/, tests/ and tools/ with ast: every name bound by `import` or
`from ... import` must be read somewhere in that module, or be listed in
its `__all__` (a re-export).  `from __future__` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path.relative_to(ROOT).as_posix()
    for top in ("src", "tests", "tools")
    for path in (ROOT / top).rglob("*.py")
)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name the module never reads."""
    tree = ast.parse(source)
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds a; `import a.b as c` binds c
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


def test_scan_finds_an_unused_import():
    source = "import os\nfrom sys import argv, path as p\n__all__ = ['p']\n"
    assert unused_imports(source) == [(1, "os"), (2, "argv")]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((ROOT / module).read_text(encoding="utf-8")) == []
