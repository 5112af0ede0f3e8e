"""Every name a package module imports is used in that module.

An unused import costs import time on every `bjorth` command and hides
which names a module really depends on.  A name imported only so that
another module can look it up here (the benchmark tracer wraps
`bjorth.decision.multistart_minimize`, for example) carries `# noqa: F401`
on its import line.  `__init__.py` re-exports names and is skipped.

`import bjorth` is lazy and each CLI command imports only what it runs; the
import-budget tests below check that in fresh interpreters.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bjorth

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


# ------------------------------------------------------------- import budget


def imported_by(args) -> set:
    """Modules a fresh interpreter imports while running `python -X importtime
    <args>`, read off the timing lines it prints to stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 1), proc.stderr[-2000:]
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def package_modules(names: set) -> set:
    return {n for n in names if n == "bjorth" or n.startswith("bjorth.")}


def test_bare_import_loads_no_submodule():
    loaded = imported_by(["-c", "import bjorth"])
    assert package_modules(loaded) == {"bjorth"}
    assert not loaded & {"statistics", "csv", "logging"}


@pytest.fixture
def pair_files(tmp_path):
    a = bjorth.gen_ginibre(3, 1, bjorth.Field.REAL)
    b = bjorth.Matrix(bjorth.Field.REAL, np.diag([0.0, 0.0, 1.0]))
    paths = (tmp_path / "a.json", tmp_path / "b.json")
    for path, m in zip(paths, (a, b)):
        path.write_text(m.to_json())
    return [str(p) for p in paths]


def test_norm_command_loads_only_core(pair_files):
    loaded = package_modules(imported_by(["-m", "bjorth", "norm", pair_files[0]]))
    assert loaded <= {"bjorth", "bjorth.__main__", "bjorth.cli", "bjorth.core"}
    assert "bjorth.core" in loaded


def test_check_command_skips_harness_and_minimax(pair_files):
    loaded = package_modules(imported_by(["-m", "bjorth", "check", *pair_files]))
    assert "bjorth.decision" in loaded
    assert not loaded & {"bjorth.harness", "bjorth.minimax"}


def test_gen_command_skips_the_solvers():
    loaded = package_modules(imported_by(["-m", "bjorth", "gen", "--kind", "ginibre",
                                          "--n", "3"]))
    assert "bjorth.harness" in loaded
    assert not loaded & {"bjorth.decision", "bjorth.lineopt", "bjorth.minimax",
                         "bjorth._sphere"}


# ------------------------------------------------------------ lazy namespace


def test_every_public_name_resolves_to_its_submodule_object():
    # earlier imports may have cached a name already, so the module-level
    # __getattr__ is also called directly
    for name in bjorth.__all__:
        if name == "__version__":
            continue
        obj = getattr(importlib.import_module(f"bjorth.{bjorth._MODULE_OF[name]}"), name)
        assert getattr(bjorth, name) is obj, name
        assert bjorth.__getattr__(name) is obj, name


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from bjorth import *", namespace)
    assert set(bjorth.__all__) <= set(namespace)
    assert set(bjorth.__all__) <= set(dir(bjorth))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bjorth.no_such_name
