"""Every name a package module imports is used in that module.

An unused import costs import time on every `bjorth` command and hides
which names a module really depends on.  A name imported only so that
another module can look it up here (the benchmark tracer wraps
`bjorth.decision.multistart_minimize`, for example) carries `# noqa: F401`
on its import line.  `__init__.py` re-exports names and is skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bjorth"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, bound))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((alias.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported
            if name not in used and "# noqa: F401" not in lines[line - 1]]


def test_scan_sees_the_module_files():
    assert {p.name for p in MODULES} >= {"core.py", "lineopt.py", "decision.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_unused_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "import os.path\n"
              "from .core import (Field,\n"
              "                   Matrix)\n"
              "from .x import traced  # noqa: F401\n"
              "def f(m: Matrix) -> None:\n"
              "    return os.path.join('a')\n")
    assert unused_imports(source) == [(2, "np"), (4, "Field")]
