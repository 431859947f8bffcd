"""Unused-import, unread-parameter, pass-through-wrapper and unreached-name
checks on the package source, written against the standard library `ast` module so they run
wherever the test suite does, and a check of the names the package exports."""
import ast
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lunephase"
# __init__.py imports names to re-export them, not to use them.
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PERFBENCH = PACKAGE.parents[1] / "perfbench"
# Public names that only tests reach, each with the reason it stays.
UNREACHED_ALLOWED = {
    "phases.sjoqvist_average": "the reference implementation the tests "
    "compare qubit_mixed_phase against",
}


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


def pass_through_wrappers(source: str) -> list[str]:
    """Functions whose body, after an optional docstring, is only
    `return g(p1, ..., pn)` on their own parameters in order: a second name
    for g that callers could use directly."""
    wrappers = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        call = body[0].value
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args]
        if (
            isinstance(call, ast.Call) and not call.keywords
            and not (args.vararg or args.kwarg or args.kwonlyargs)
            and [a.id if isinstance(a, ast.Name) else None for a in call.args] == params
        ):
            wrappers.append(f"{node.name} (line {node.lineno})")
    return wrappers


@pytest.mark.parametrize("module", MODULES)
def test_no_pass_through_wrappers(module):
    assert pass_through_wrappers((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_checker_flags_pass_through_wrappers():
    source = (
        "def plain(x):\n"
        "    return float(x)\n"
        "def documented(a, b):\n"
        "    \"\"\"Docstring.\"\"\"\n"
        "    return pow(a, b)\n"
        "class C:\n"
        "    def method(self, v):\n"
        "        return helper(self, v)\n"
        "def swapped(a, b):\n"
        "    return pow(b, a)\n"
        "def extra(a):\n"
        "    return pow(a, 2)\n"
        "def keyword(a):\n"
        "    return g(a, base=2)\n"
        "def star(*args):\n"
        "    return g(*args)\n"
        "def two_steps(x):\n"
        "    y = x\n"
        "    return f(y)\n"
        "def attribute(x):\n"
        "    return x.real\n"
        "def docstring_only(x):\n"
        "    \"\"\"x\"\"\"\n"
        "def nothing():\n"
        "    return\n"
    )
    assert pass_through_wrappers(source) == [
        "plain (line 1)", "documented (line 3)", "method (line 7)",
    ]


def json_dumps_calls(source: str) -> list[int]:
    """Line numbers of the calls to json.dumps, also under an alias of the
    module or a name imported from it."""
    tree = ast.parse(source)
    modules, functions = {"json"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name == "json" and a.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            functions |= {a.asname or a.name for a in node.names if a.name == "dumps"}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (
            isinstance(f, ast.Attribute) and f.attr == "dumps"
            and isinstance(f.value, ast.Name) and f.value.id in modules
        ) or (isinstance(f, ast.Name) and f.id in functions):
            lines.append(node.lineno)
    return sorted(lines)


def test_one_json_writer():
    # every command's JSON goes through experiment.render_table
    sites = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in json_dumps_calls(path.read_text(encoding="utf-8"))
    ]
    assert len(sites) == 1, sites


def test_checker_finds_json_dumps_calls():
    source = (
        "import json\n"
        "import json as j\n"
        "from json import dumps, dumps as d, loads\n"
        "json.dumps({})\n"
        "j.dumps([])\n"
        "dumps(1)\n"
        "d(2)\n"
        "loads('1')\n"
        "text.dumps()\n"
        "print(json.dumps(None))\n"
    )
    assert json_dumps_calls(source) == [4, 5, 6, 7, 10]


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module):
    """(qualified name, bare name, defining node) for each public top-level
    function, class and constant, and each public method, property and
    dataclass field of a public top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            named = [(node.name, node)]
        elif isinstance(node, ast.Assign):
            named = [(t.id, node) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            named = [(node.target.id, node)]
        else:
            named = []
        for name, defining in named:
            if _public(name):
                yield name, name, defining
        if isinstance(node, ast.ClassDef) and _public(node.name):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if _public(name):
                    yield f"{node.name}.{name}", name, member


def _reads(node: ast.AST) -> list[str]:
    """Names read anywhere under node: loaded names, loaded attributes and
    keyword arguments."""
    names = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.append(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.append(n.attr)
        elif isinstance(n, ast.keyword) and n.arg is not None:
            names.append(n.arg)
    return names


def unreached_names(package: dict[str, str], readers: list[str] = ()) -> list[str]:
    """Public names of the package modules that nothing reads outside their
    own definition, as module.name or module.Class.member.

    package maps module names to source; readers are further sources that
    may read package names but define none. A read is matched by bare name
    alone, so a name counts as reached when anything of that name is read.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    counts: dict[str, int] = {}
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        for name in _reads(tree):
            counts[name] = counts.get(name, 0) + 1
    unreached = []
    for module, tree in trees.items():
        for qualified, name, node in _definitions(tree):
            if counts.get(name, 0) == _reads(node).count(name):
                unreached.append(f"{module}.{qualified}")
    return sorted(unreached)


def test_every_public_name_is_reached():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    readers = [p.read_text(encoding="utf-8") for p in PERFBENCH.glob("*.py")]
    assert readers, "perfbench modules not found"
    assert unreached_names(package, readers) == sorted(UNREACHED_ALLOWED)


def test_checker_flags_unreached_names():
    package = {
        "m": (
            "from dataclasses import dataclass\n"
            "LIMIT = 3\n"
            "UNUSED_LIMIT = 4\n"
            "def helper(n):\n"
            "    return helper(n - 1) if n else LIMIT\n"
            "@dataclass\n"
            "class Box:\n"
            "    size: int\n"
            "    label: str = ''\n"
            "    def grow(self):\n"
            "        return Box(size=self.size + 1)\n"
            "    @property\n"
            "    def area(self):\n"
            "        return self.size ** 2\n"
            "    def _hidden(self):\n"
            "        return 0\n"
            "class _Private:\n"
            "    value: int = 0\n"
        ),
    }
    bench = "from m import Box\nBox(1).grow()\n"
    # a test module reads helper, label and area; tests are not readers
    test = "from m import helper, Box\nhelper(2)\nBox(1).label, Box(1).area\n"
    want = ["m.Box.area", "m.Box.label", "m.UNUSED_LIMIT", "m.helper"]
    assert unreached_names(package, [bench]) == want
    assert unreached_names(package, [bench, test]) == ["m.UNUSED_LIMIT"]


def test_star_import_binds_the_public_names():
    import lunephase

    namespace = {}
    exec("from lunephase import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(lunephase.__all__)
    assert len(set(lunephase.__all__)) == len(lunephase.__all__)
    assert namespace["__version__"] == lunephase.__version__
    assert not [n for n, v in namespace.items() if isinstance(v, types.ModuleType)]
    assert {"run_sequence", "SequenceProgram", "DomainError", "parse_sequence"} <= set(namespace)
