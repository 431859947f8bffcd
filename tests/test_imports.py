"""Unused-import and unread-parameter checks on the package source, written
against the standard library `ast` module so they run wherever the test
suite does."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lunephase"
# __init__.py imports names to re-export them, not to use them.
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, with their line numbers."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def unread_parameters(source: str) -> list[str]:
    """Parameters a function's body never reads, with the function's name
    and line number; self and cls are exempt."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        unread += [
            f"{name}.{p} (line {node.lineno})"
            for p in params if p not in read and p not in ("self", "cls")
        ]
    return unread


def test_package_modules_found():
    assert "pulse.py" in MODULES and "experiment.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_checker_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "def f(x: np.ndarray) -> float:\n"
        "    return pi * x\n"
    )
    assert unused_imports(source) == ["os (line 2)", "tau (line 4)"]


@pytest.mark.parametrize("module", MODULES)
def test_every_parameter_is_read(module):
    assert unread_parameters((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_checker_flags_unread_parameters():
    source = (
        "class C:\n"
        "    def m(self, used, unused, *args, **kw):\n"
        "        def inner(x):\n"
        "            return used\n"
        "        return inner, kw\n"
        "f = lambda a, b: a\n"
    )
    assert sorted(unread_parameters(source)) == [
        "<lambda>.b (line 6)",
        "inner.x (line 3)",
        "m.args (line 2)",
        "m.unused (line 2)",
    ]
