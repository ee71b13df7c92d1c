"""Rules checked on the source text of the package.

Every file under ``src/`` is parsed with :mod:`ast`, and each violation is
reported with its place.

* No float in any decision: a float literal, a ``float(...)`` call anywhere
  but ``Scalar.__float__`` (the explicit conversion for callers), or any
  ``math`` function other than the exact integer ones ``gcd``, ``lcm`` and
  ``floor``.
* No runtime dependency: every import is of the standard library or of the
  package itself, so ``mpmath``, which the tests use as a reference, never is.
* A record that exists is valid: a frozen record is written with
  ``object.__setattr__`` only in its ``__post_init__``, where it reads and
  checks its fields, so no other code can change a checked record.
* A cache is bounded: every ``functools.lru_cache`` takes an int
  ``maxsize``, and ``functools.cache`` is not used, since the caches key on
  exact values and a long run meets a new one at every step.
* A cell's faces are decided in one place: ``Polyhedron(...)`` is called
  only in ``complexes/geometry.py``, where a hull decides them and
  ``map_cell`` moves them, and in ``_Builder.finish``, which divides a
  built cell's coordinates by D, so no other code assembles faces by hand.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MATH_ALLOWED = {"gcd", "lcm", "floor"}
FLOAT_CALL_ALLOWED = {("Scalar", "__float__")}
_SCOPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _nodes(node, scope=()):
    """Every node under node, with the names of the classes and functions
    that enclose it."""
    for child in ast.iter_child_nodes(node):
        inner = scope + (child.name,) if isinstance(child, _SCOPES) else scope
        yield child, inner
        yield from _nodes(child, inner)


def float_rule_violations(source: str, name: str = "<source>") -> list[str]:
    tree = ast.parse(source, filename=name)
    math_names = {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.Import)
                  for alias in node.names if alias.name == "math"}
    found = []
    for node, scope in _nodes(tree):
        where = f"{name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and type(node.value) is float:
            found.append(f"{where}: float literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float" and scope not in FLOAT_CALL_ALLOWED):
            found.append(f"{where}: float() call in {'.'.join(scope) or 'module'}")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_names and node.attr not in MATH_ALLOWED):
            found.append(f"{where}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{where}: from math import {alias.name}"
                      for alias in node.names if alias.name not in MATH_ALLOWED]
    return found


def test_no_float_in_the_package():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [v for path in files
             for v in float_rule_violations(path.read_text(), str(path.relative_to(SRC)))]
    assert found == []


@pytest.mark.parametrize("source, message", [
    ("x = 0.5\n", "float literal 0.5"),
    ("x = 1e-9\n", "float literal 1e-09"),
    ("def f(s):\n    return float(s) < 1\n", "float() call in f"),
    ("class Scalar:\n    def sign(self):\n        return float(self)\n",
     "float() call in Scalar.sign"),
    ("x = float('1')\n", "float() call in module"),
    ("import math\ny = math.sqrt(2)\n", "math.sqrt"),
    ("import math as m\ny = m.isclose(1, 2)\n", "math.isclose"),
    ("from math import gcd, pi\n", "from math import pi"),
])
def test_the_float_rule_reports_each_kind(source, message):
    assert [v.split(": ", 1)[1] for v in float_rule_violations(source)] == [message]


def test_the_float_rule_allows_the_exact_forms():
    source = ("import math\nfrom math import gcd, lcm\n"
              "class Scalar:\n    def __float__(self):\n"
              "        return float(self.as_fraction())\n"
              "k = math.floor(h) + math.gcd(4, 6) + gcd(2, 4) + lcm(2, 3)\n")
    assert float_rule_violations(source) == []


def import_rule_violations(source: str, name: str = "<source>") -> list[str]:
    found = []
    for node, _ in _nodes(ast.parse(source, filename=name)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{name}:{node.lineno}: import of {module}" for module in modules
                  if module.split(".")[0] not in sys.stdlib_module_names | {"tesstopo"}]
    return found


def test_the_package_imports_only_the_standard_library():
    found = [v for path in sorted(SRC.rglob("*.py"))
             for v in import_rule_violations(path.read_text(), str(path.relative_to(SRC)))]
    assert found == []


@pytest.mark.parametrize("source, message", [
    ("import mpmath\n", "import of mpmath"),
    ("import math, mpmath.libmp as libmp\n", "import of mpmath.libmp"),
    ("from mpmath import mpf\n", "import of mpmath"),
    ("from mpmath.libmp import to_int\n", "import of mpmath.libmp"),
    ("def f():\n    import mpmath\n", "import of mpmath"),
])
def test_the_import_rule_reports_each_form(source, message):
    assert [v.split(": ", 1)[1] for v in import_rule_violations(source)] == [message]


def test_the_import_rule_allows_the_standard_library_and_the_package():
    source = ("import math\nfrom fractions import Fraction\nfrom . import scalar\n"
              "from ..scalar import Scalar\nfrom tesstopo.errors import UsageError\n")
    assert import_rule_violations(source) == []


def setattr_rule_violations(source: str, name: str = "<source>") -> list[str]:
    return [f"{name}:{node.lineno}: object.__setattr__ in {'.'.join(scope) or 'module'}"
            for node, scope in _nodes(ast.parse(source, filename=name))
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object"
            and scope[-1:] != ("__post_init__",)]


def test_records_are_written_only_in_post_init():
    found = [v for path in sorted(SRC.rglob("*.py"))
             for v in setattr_rule_violations(path.read_text(), str(path.relative_to(SRC)))]
    assert found == []


@pytest.mark.parametrize("source, message", [
    ("class P:\n    def with_x(self, x):\n        object.__setattr__(self, 'x', x)\n",
     "object.__setattr__ in P.with_x"),
    ("def force(p):\n    object.__setattr__(p, 'x', 1)\n", "object.__setattr__ in force"),
    ("object.__setattr__(P, 'x', 1)\n", "object.__setattr__ in module"),
    ("class P:\n    def __post_init__(self):\n        def later(v):\n"
     "            object.__setattr__(self, 'x', v)\n",
     "object.__setattr__ in P.__post_init__.later"),
    ("class P:\n    def fix(self):\n        set_it = object.__setattr__\n",
     "object.__setattr__ in P.fix"),
])
def test_the_setattr_rule_reports_each_place(source, message):
    assert [v.split(": ", 1)[1] for v in setattr_rule_violations(source)] == [message]


def test_the_setattr_rule_allows_post_init():
    source = ("class P:\n    def __post_init__(self):\n"
              "        for name in ('x', 'y'):\n"
              "            object.__setattr__(self, name, int(getattr(self, name)))\n")
    assert setattr_rule_violations(source) == []


CACHES = {"lru_cache", "cache"}


def cache_rule_violations(source: str, name: str = "<source>") -> list[str]:
    tree = ast.parse(source, filename=name)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "functools"}
    direct = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "functools"
              for alias in node.names if alias.name in CACHES}

    def cache_of(node):  # the functools cache that node names, if any
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.attr if node.value.id in modules and node.attr in CACHES else None
        return direct.get(node.id) if isinstance(node, ast.Name) else None

    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node, scope in _nodes(tree):
        kind = cache_of(node)
        if kind is None:
            continue
        use = calls.get(id(node), node)
        sizes = [] if use is node else [*use.args[:1], *(k.value for k in use.keywords
                                                         if k.arg == "maxsize")]
        if kind == "lru_cache" and len(sizes) == 1 and isinstance(sizes[0], ast.Constant) \
                and type(sizes[0].value) is int:
            continue
        found.append(f"{name}:{node.lineno}: {ast.unparse(use)} without an int maxsize"
                     f" in {'.'.join(scope) or 'module'}")
    return found


def test_every_cache_in_the_package_is_bounded():
    found = [v for path in sorted(SRC.rglob("*.py"))
             for v in cache_rule_violations(path.read_text(), str(path.relative_to(SRC)))]
    assert found == []


@pytest.mark.parametrize("source, message", [
    ("import functools\n@functools.lru_cache\ndef f(x):\n    return x\n",
     "functools.lru_cache without an int maxsize in f"),
    ("import functools\n@functools.lru_cache()\ndef f(x):\n    return x\n",
     "functools.lru_cache() without an int maxsize in f"),
    ("import functools\n@functools.lru_cache(maxsize=None)\ndef f(x):\n    return x\n",
     "functools.lru_cache(maxsize=None) without an int maxsize in f"),
    ("import functools as ft\nSIZE = 8\n@ft.lru_cache(maxsize=SIZE)\ndef f(x):\n"
     "    return x\n", "ft.lru_cache(maxsize=SIZE) without an int maxsize in f"),
    ("from functools import lru_cache\nclass C:\n    @lru_cache(None)\n"
     "    def f(self, x):\n        return x\n",
     "lru_cache(None) without an int maxsize in C.f"),
    ("from functools import cache\n@cache\ndef f(x):\n    return x\n",
     "cache without an int maxsize in f"),
    ("import functools\ndef f(g):\n    return functools.cache(g)\n",
     "functools.cache(g) without an int maxsize in f"),
])
def test_the_cache_rule_reports_each_form(source, message):
    assert [v.split(": ", 1)[1] for v in cache_rule_violations(source)] == [message]


def test_the_cache_rule_allows_an_int_maxsize():
    source = ("import functools\nfrom functools import lru_cache as memo\n"
              "@functools.lru_cache(maxsize=8)\ndef f(x):\n    return x\n"
              "@memo(16)\ndef g(x):\n    return x\n"
              "@functools.wraps(f)\ndef h(x):\n    return x\n")
    assert cache_rule_violations(source) == []


POLYHEDRON_HOME = "tesstopo/complexes/geometry.py"
POLYHEDRON_ALLOWED = {("tesstopo/complexes/build.py", ("_Builder", "finish"))}


def polyhedron_rule_violations(source: str, name: str = "<source>") -> list[str]:
    if name == POLYHEDRON_HOME:
        return []
    return [f"{name}:{node.lineno}: Polyhedron(...) in {'.'.join(scope) or 'module'}"
            for node, scope in _nodes(ast.parse(source, filename=name))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Polyhedron"
            and (name, scope) not in POLYHEDRON_ALLOWED]


def test_cells_are_assembled_only_by_the_geometry_and_the_builder_finish():
    found = [v for path in sorted(SRC.rglob("*.py"))
             for v in polyhedron_rule_violations(path.read_text(),
                                                 path.relative_to(SRC).as_posix())]
    assert found == []


@pytest.mark.parametrize("name, source, message", [
    ("tesstopo/complexes/domain.py",
     "def shifted(cell, facets):\n    return Polyhedron(cell.apices, facets, (), 1)\n",
     "Polyhedron(...) in shifted"),
    ("tesstopo/complexes/build.py",
     "class _Builder:\n    def __init__(self, c):\n        self.c = Polyhedron(*c)\n",
     "Polyhedron(...) in _Builder.__init__"),
    ("tesstopo/complexes/build.py", "def finish(c):\n    return Polyhedron(*c)\n",
     "Polyhedron(...) in finish"),
    ("tesstopo/complexes/build.py",
     "class _Builder:\n    def finish(self):\n        def one(c):\n"
     "            return Polyhedron(*c)\n",
     "Polyhedron(...) in _Builder.finish.one"),
    ("tesstopo/cli.py", "cell = geometry.Polyhedron((), (), (), 0)\n",
     "Polyhedron(...) in module"),
])
def test_the_polyhedron_rule_reports_each_place(name, source, message):
    assert [v.split(": ", 1)[1] for v in polyhedron_rule_violations(source, name)] == [message]


def test_the_polyhedron_rule_allows_the_geometry_and_the_builder_finish():
    source = "def hull(points):\n    return Polyhedron(points, (), (), 0)\n"
    assert polyhedron_rule_violations(source, POLYHEDRON_HOME) == []
    source = ("class _Builder:\n    def finish(self):\n"
              "        return tuple(Polyhedron(*c) for c in self.cells)\n")
    assert polyhedron_rule_violations(source, "tesstopo/complexes/build.py") == []
