"""Every imported name is read by the file that imports it.

A lint check in the suite: each .py file under src/olsrv2sim, tests/
and scripts/ is parsed, and a name that an import binds but the file
never reads fails the test. `from __future__` imports bind no name, and
an import whose line carries `# noqa: F401` is kept on purpose (its
comment says for whom).
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "olsrv2sim").glob("*.py"),
                *(ROOT / "tests").glob("*.py"),
                *(ROOT / "scripts").glob("*.py")])


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1] \
                        or "# noqa: F401" in lines[node.lineno - 1]:
                    continue
                name = alias.asname or alias.name.partition(".")[0]
                bound.append((alias.lineno, name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from a.b import (c,\n"
              "                 d as e)\n"
              "import f.g\n"
              "from h import i  # noqa: F401\n"
              "print(sys.argv, e, f.g)\n")
    assert unused_imports(source) == [(2, "os"), (3, "c")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
