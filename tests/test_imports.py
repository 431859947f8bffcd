"""Unused-import, unread-parameter, pass-through-wrapper, unreached-name,
one-owner call-site and repeated-guard-message checks on the package
source, written against the standard library `ast` module so they run
wherever the test suite does, and a check of the names the package exports."""
import ast
import importlib
import os
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lunephase"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
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


def module_calls(source: str, module: str, function: str) -> list[int]:
    """Line numbers of the calls to module.function, also under an alias of
    the module or a name imported from it."""
    tree = ast.parse(source)
    modules, functions = {module}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name == module and a.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            functions |= {a.asname or a.name for a in node.names if a.name == function}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (
            isinstance(f, ast.Attribute) and f.attr == function
            and isinstance(f.value, ast.Name) and f.value.id in modules
        ) or (isinstance(f, ast.Name) and f.id in functions):
            lines.append(node.lineno)
    return sorted(lines)


def package_calls(module: str, function: str) -> list[str]:
    """module.function's call sites in the package, as file:line."""
    return [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in module_calls(path.read_text(encoding="utf-8"), module, function)
    ]


def test_one_json_writer():
    # every command's JSON goes through experiment.render_table
    sites = package_calls("json", "dumps")
    assert len(sites) == 1, sites


def test_one_angle_wrap():
    # every angle is wrapped by qcore.principal_angle, solid angles included
    tree = ast.parse((PACKAGE / "qcore.py").read_text(encoding="utf-8"))
    owner = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "principal_angle"
    )
    sites = package_calls("math", "remainder")
    body = {f"qcore.py:{line}" for line in range(owner.lineno, owner.end_lineno + 1)}
    assert sites and set(sites) <= body, sites


def test_one_real_probe():
    # every real input is probed by qcore._check_real, the one reader of
    # _NOT_REAL, bare or as qcore._NOT_REAL
    tree = ast.parse((PACKAGE / "qcore.py").read_text(encoding="utf-8"))
    body = {
        f"qcore.py:{line}"
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_check_real"
        for line in range(node.lineno, node.end_lineno + 1)
    }
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "_NOT_REAL"
        and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute) and node.attr == "_NOT_REAL"
    ]
    assert sites and set(sites) <= body, sites


# the literal forms of the two-spin layout |ab>, spin a leftmost: the
# slices of a 4x4 on one spin's blocks, the entries of spin a's coherence
# and the m_z values of a table
LAYOUT_SLICES_2D = {":2", "2:"}
LAYOUT_SLICES = {"0::2", "1::2"}
LAYOUT_ENTRIES = {(0, 2), (1, 3)}


def _number(node) -> float | None:
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None
    return value if isinstance(value, (int, float)) else None


def layout_sites(source: str) -> list[int]:
    """Lines that index a 4x4 by the two-spin layout ([:2, :2], [2:, 2:],
    0::2, 1::2, [0, 2], [1, 3]), reshape one into its two spins
    (reshape(2, 2, 2, 2)) or define an m_z table (a literal list or tuple
    that holds both 0.5 and -0.5)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript):
            index = node.slice
            parts = index.elts if isinstance(index, ast.Tuple) else [index]
            cuts = {ast.unparse(p) for p in parts if isinstance(p, ast.Slice)}
            if (
                cuts & LAYOUT_SLICES
                or len(parts) == 2 and cuts & LAYOUT_SLICES_2D
                or tuple(map(_number, parts)) in LAYOUT_ENTRIES
            ):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else None
            shape = [_number(a) for a in node.args]
            if name == "reshape" and (shape == [2, 2, 2, 2] or "(2, 2, 2, 2)" in map(
                ast.unparse, node.args
            )):
                lines.append(node.lineno)
        elif isinstance(node, (ast.List, ast.Tuple)):
            if {0.5, -0.5} <= {_number(e) for e in node.elts}:
                lines.append(node.lineno)
    return sorted(lines)


def test_checker_finds_layout_sites():
    source = (
        "m[:2, :2], m[2:, 2:] = u, v\n"
        "x = m[0::2]\n"
        "y = m[1::2, 1::2]\n"
        "c = m[0, 2] + m[1, 3]\n"
        "r = m.reshape(2, 2, 2, 2)\n"
        "r = np.reshape(m, (2, 2, 2, 2))\n"
        "_M = np.array([0.5, -0.5, 0.5, -0.5])\n"
        "head = text[:2]\n"
        "entry = m[0, 1]\n"
        "flat = m.reshape(-1)\n"
        "pair = (0.5, 1.0)\n"
    )
    assert layout_sites(source) == [1, 1, 2, 3, 4, 4, 5, 6, 7]


def test_one_two_spin_layout():
    # qcore states the basis layout once and derives every index of a pair
    # from it; no other module indexes a 4x4 by it or holds an m_z table
    sites = {
        path.name: layout_sites(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert sites.pop("qcore.py")
    assert {name: lines for name, lines in sites.items() if lines} == {}


def spin_set_sites(source: str, labels) -> list[int]:
    """Lines that hold a tuple, list or set literal of two or more of the
    spin labels, or a string (a docstring or a part of an f-string too) that
    quotes two or more of them: a second statement of the spin set."""
    def stated(node) -> set:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return {e.value for e in node.elts if isinstance(e, ast.Constant)} & set(labels)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return {s for s in labels if re.search(f"(['\"]){re.escape(s)}\\1", node.value)}
        return set()

    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if len(stated(node)) >= 2)


def test_checker_finds_spin_sets():
    source = (
        "if spin not in ('a', 'b'):\n"
        "    pass\n"
        "labels = ['b', 'a', 'c']\n"
        "keep = {'a', 'b'}\n"
        "one = ('a',)\n"
        "axes = ('x', 'y')\n"
        "blocks = {'a': 0, 'b': 1}\n"
        "text = 'ab'\n"
        "raise ValueError(\"keep must be 'a' or 'b'\")\n"
        "fail(f'expected spin label \"b\" or \"a\", found {tok!r}')\n"
        "note = \"spin 'a' only, or b\"\n"
        "quoted = \"'ab' and 'b'\"\n"
        'def f():\n'
        '    """Keep is \'a\' or \'b\'."""\n'
    )
    assert spin_set_sites(source, ("a", "b")) == [1, 3, 4, 9, 10, 14]


def test_one_spin_set():
    # qcore derives the spin labels from its layout (_SPINS); every other
    # test of a label is a membership test in it, not a literal of its own,
    # and a message that lists the labels builds its text from it.
    # The labels are stated here, apart from the package, as the oracle.
    sites = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in spin_set_sites(path.read_text(encoding="utf-8"), ("a", "b"))
    ]
    assert sites == []


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
    assert module_calls(source, "json", "dumps") == [4, 5, 6, 7, 10]


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


def _own_names(node: ast.AST) -> set[str]:
    """Names that code under node defines itself: functions, classes,
    assigned names and parameters."""
    own = set()
    for n in ast.walk(node):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(n.name)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            own.add(n.id)
        elif isinstance(n, ast.arg):
            own.add(n.arg)
    return own


def unreached_names(package: dict[str, str], readers: list[str] = ()) -> list[str]:
    """Public names of the package modules that nothing reads outside their
    own definition, as module.name or module.Class.member.

    package maps module names to source; readers are further sources that
    may read package names. A read is matched by bare name alone, so a name
    counts as reached when anything of that name is read, except that a
    reader's reads of a name it defines itself do not count.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    reads = [_reads(tree) for tree in trees.values()]
    for tree in map(ast.parse, readers):
        own = _own_names(tree)
        reads.append([name for name in _reads(tree) if name not in own])
    counts = Counter(name for names in reads for name in names)
    unreached = []
    for module, tree in trees.items():
        for qualified, name, node in _definitions(tree):
            if counts[name] == _reads(node).count(name):
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


def test_checker_ignores_a_readers_own_names():
    package = {"m": "def helper():\n    return 1\n"}
    # each reader reads a helper of its own: a function, a parameter, an
    # assigned name, a class
    own = [
        "def helper():\n    return 2\nhelper()\n",
        "def run(helper):\n    return helper()\n",
        "helper = print\nhelper()\n",
        "class helper:\n    pass\nhelper()\n",
    ]
    for bench in own:
        assert unreached_names(package, [bench]) == ["m.helper"], bench
    assert unreached_names(package, ["from m import helper\nhelper()\n"]) == []


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


def loaded_after(statement: str) -> list[str]:
    """The lunephase modules, and numpy if it is loaded, in sys.modules of
    a fresh interpreter after statement."""
    probe = (
        f"import sys\n{statement}\n"
        "print(*sorted(m for m in sys.modules if m == 'numpy' or m.split('.')[0] == 'lunephase'))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.split()


def test_package_import_loads_no_module():
    assert loaded_after("import lunephase") == ["lunephase"]


def test_pulse_level_import_loads_only_its_layers():
    assert loaded_after("import lunephase.pulse, lunephase.qcore") == [
        "lunephase", "lunephase.errors", "lunephase.policy", "lunephase.pulse",
        "lunephase.qcore", "numpy",
    ]


def test_each_public_name_is_its_modules_object():
    import lunephase

    # each name's home is the one module that defines it at top level
    homes = {}
    for module in MODULES:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        for qualified, _, _ in _definitions(tree):
            homes.setdefault(qualified, []).append(module.removesuffix(".py"))
    assert lunephase.__all__[-1] == "__version__"
    for name in lunephase.__all__[:-1]:
        (home,) = homes[name]
        home = importlib.import_module(f"lunephase.{home}")
        assert getattr(lunephase, name) is getattr(home, name), name
    # the package binds none of them: each read goes to the module
    assert not set(lunephase.__all__[:-1]) & set(vars(lunephase))
    assert set(lunephase.__all__) <= set(dir(lunephase))


def test_unknown_name_is_an_attribute_error():
    import lunephase

    with pytest.raises(AttributeError) as err:
        lunephase.no_such_name
    assert str(err.value) == "module 'lunephase' has no attribute 'no_such_name'"
    assert not hasattr(lunephase, "no_such_name")


def _message_text(node: ast.AST) -> str | None:
    """A string literal's text, or an f-string's with each field as {}."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            v.value if isinstance(v, ast.Constant) else "{}" for v in node.values
        )
    return None


def guard_messages(source: str) -> list[tuple[str, int]]:
    """(message, line) of each exception constructed with a literal message
    in a raise statement, and of each `.fail(column, message)` and
    `_check_two_spin(rho, message)` call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            args = node.exc.args[:1]
        elif isinstance(node, ast.Call) and len(node.args) == 2 and (
            isinstance(node.func, ast.Attribute) and node.func.attr == "fail"
            or isinstance(node.func, ast.Name) and node.func.id == "_check_two_spin"
        ):
            args = node.args[1:]
        else:
            continue
        found += [(text, node.lineno) for text in map(_message_text, args) if text is not None]
    return found


def repeated_messages(package: dict[str, str]) -> dict[str, list[str]]:
    """Guard messages raised at more than one site, each with its sites as
    file:line; package maps file names to source."""
    sites: dict[str, list[str]] = {}
    for name, source in sorted(package.items()):
        for text, line in guard_messages(source):
            sites.setdefault(text, []).append(f"{name}:{line}")
    return {text: where for text, where in sites.items() if len(where) > 1}


def test_each_guard_message_has_one_raise_site():
    package = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert repeated_messages(package) == {}


def test_checker_flags_repeated_messages():
    package = {
        "a.py": (
            "def f(x, spin):\n"
            "    if x < 0:\n"
            "        raise ValueError('x must be nonnegative')\n"
            "    if spin not in 'ab':\n"
            "        raise KeyError(f'unknown spin {spin!r}')\n"
            "    raise ValueError(str(x))\n"
            "class P:\n"
            "    def run(self, col, tok):\n"
            "        self.fail(col, 'x must be nonnegative')\n"
            "        self.fail(col, f'bad token {tok!r}')\n"
            "        self.fail(col)\n"
        ),
        "b.py": (
            "def g(other, exc):\n"
            "    if other:\n"
            "        raise KeyError(f'unknown spin {other}')\n"
            "    raise\n"
            "def h(col, tok):\n"
            "    fail(col, f'bad token {tok!r}')\n"
            "    raise ValueError(f'bad token {tok!r} here') from None\n"
            "def k(rho):\n"
            "    _check_two_spin(rho, 'x must be nonnegative')\n"
            "    _check_two_spin(rho)\n"
        ),
    }
    assert repeated_messages(package) == {
        "x must be nonnegative": ["a.py:3", "a.py:9", "b.py:9"],
        "unknown spin {}": ["a.py:5", "b.py:3"],
    }
