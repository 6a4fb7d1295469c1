"""Source hygiene of the package, checked with the standard-library ast:
no local variable is assigned and never read, no import goes unused, no
parameter of a module-level function goes unread, every name in a
module's __all__ is bound at its module level, and no module-level
function or class and no method is dead.

For locals and imports, names starting with "_" are exempt, as are
`from __future__` imports and the re-exports of the package's
__init__.py; a name listed in a module's __all__ counts as used.  A
module-level function or class is dead when no module of the package
reads it (as a name or an attribute) and no module lists it in __all__.
A method other than a dunder is dead when no module of the package, no
script under scripts/ and no module of perfbench/ reads its name.  No
module passes map(from_mpf, ...) to sum_with_tail: a certified sum builds
its terms as kernel pairs.  No module multiplies by a UPoly.q_power(...)
or UPoly.u_power(...) built in place: a product by a monomial is a
shift_u.  No module reads the process environment.  Every option a
command of cli._COMMANDS declares is read by its handler.  The two exact
rings of series expose the same public members, and those are the names
the protocol comment in series.py lists.  The public names that only
tests read, directly or through each other, are exactly TEST_ONLY, and
every script under scripts/ is named by a test.  numpy is loaded
only by asymptotics.fit_limit, not by importing the package or the CLI,
and importing them loads neither dataclasses nor inspect.
"""

import ast
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qzeta.series import FractionRing, UPolyRing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qzeta"
MODULES = sorted(SRC.glob("*.py"))
# the code that may call a method of the package; tests do not count
CALLERS = (MODULES + sorted((ROOT / "scripts").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py")))

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(func):
    """The nodes of func's body outside nested functions and classes."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _loaded(tree) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _read(tree) -> set:
    """The names tree reads, as a name or as an attribute."""
    return _loaded(tree) | {node.attr for node in ast.walk(tree)
                            if isinstance(node, ast.Attribute)}


def unused_locals(tree) -> list:
    """(function, name) for each local assigned in a function and read
    nowhere in it, nested functions included."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = list(_own_nodes(func))
        declared = {name for node in own
                    if isinstance(node, (ast.Global, ast.Nonlocal))
                    for name in node.names}
        stored = {node.id for node in own
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        read = _loaded(func)
        found.extend((func.name, name) for name in sorted(stored - read - declared)
                     if not name.startswith("_"))
    return found


def unread_parameters(tree) -> list:
    """(function, name) for each parameter of a module-level function that
    its body, nested functions included, never reads."""
    found = []
    for func in tree.body:
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        params = [a for a in (args.posonlyargs + args.args + [args.vararg]
                              + args.kwonlyargs + [args.kwarg]) if a is not None]
        read = _loaded(func)
        found.extend((func.name, a.arg) for a in params if a.arg not in read)
    return found


def _exported(tree) -> set:
    """The names a literal module-level __all__ lists."""
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            exported |= {elt.value for elt in node.value.elts
                         if isinstance(elt, ast.Constant)}
    return exported


def stale_exports(tree) -> list:
    """The names a module's __all__ lists that no module-level def, class,
    assignment or import of that module binds."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    return sorted(_exported(tree) - bound)


def unused_imports(tree) -> list:
    """Imported names that the module never reads and does not list in
    __all__."""
    used = _loaded(tree) | _exported(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and not name.startswith("_"):
                    found.append(name)
    return found


def dead_definitions(trees: dict) -> list:
    """(module, name) for each module-level function or class that no
    module in trees (file name -> ast) reads or lists in __all__."""
    read = set()
    for tree in trees.values():
        read |= _read(tree) | _exported(tree)
    return [(name, node.name) for name, tree in sorted(trees.items())
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in read]


def dead_methods(trees: dict, callers) -> list:
    """(module, class, name) for each method of a class in trees (file
    name -> ast), dunders excepted, whose name no tree in callers reads."""
    read = set()
    for tree in callers:
        read |= _read(tree)
    return [(name, cls.name, node.name) for name, tree in sorted(trees.items())
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in read]


def _name(node) -> str | None:
    """The name a Name or Attribute node reads, else None."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def converted_sums(tree) -> list:
    """The line of each sum_with_tail call given map(from_mpf, ...)."""
    return [call.lineno for call in ast.walk(tree)
            if isinstance(call, ast.Call) and _name(call.func) == "sum_with_tail"
            and any(isinstance(arg, ast.Call) and _name(arg.func) == "map"
                    and arg.args and _name(arg.args[0]) == "from_mpf"
                    for arg in call.args + [kw.value for kw in call.keywords])]


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree) -> list:
    """The line of each read of the process environment: os.environ,
    os.getenv or their bytes forms, as an attribute or an imported name."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT)
                  or (isinstance(node, ast.ImportFrom) and node.module == "os"
                      and any(alias.name in _ENVIRONMENT for alias in node.names)))


def _is_monomial(node) -> bool:
    """Whether node builds UPoly.q_power(...) or UPoly.u_power(...)."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("q_power", "u_power")
            and _name(node.func.value) == "UPoly")


def monomial_products(tree) -> list:
    """The line of each monomial built in place as an operand of *."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult):
            operands = (node.value,)
        else:
            continue
        found += [op.lineno for op in operands if _is_monomial(op)]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_locals_or_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = [f"local {name!r} in {func}() is never read"
                for func, name in unused_locals(tree)]
    if path.name != "__init__.py":
        problems += [f"import {name!r} is never used" for name in unused_imports(tree)]
    problems += [f"parameter {name!r} of {func}() is never read"
                 for func, name in unread_parameters(tree)]
    problems += [f"__all__ lists {name!r}, which the module does not bind"
                 for name in stale_exports(tree)]
    problems += [f"line {line}: sum_with_tail is given mpf terms through map(from_mpf, ...)"
                 for line in converted_sums(tree)]
    problems += [f"line {line}: a product by a monomial should be shift_u"
                 for line in monomial_products(tree)]
    problems += [f"line {line}: reads the process environment"
                 for line in environment_reads(tree)]
    assert not problems, problems


def test_checker_flags_dead_names():
    tree = ast.parse(
        "import os\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "def f(x):\n"
        "    dead = x + 1\n"
        "    live = 2\n"
        "    _skip = 3\n"
        "    def g():\n"
        "        return live\n"
        "    return g\n")
    assert unused_locals(tree) == [("f", "dead")]
    assert unused_imports(tree) == ["os", "pi"]


def test_checker_flags_unread_parameters():
    tree = ast.parse(
        "def f(a, b, *args, c=1, **kw):\n"
        "    def g():\n"
        "        return b + kw['x']\n"
        "    return g\n"
        "class K:\n"
        "    def method(self, unread):\n"
        "        return 0\n")
    assert unread_parameters(tree) == [("f", "a"), ("f", "args"), ("f", "c")]


def test_checker_flags_stale_exports():
    tree = ast.parse(
        "import os.path\n"
        "from math import pi as circle\n"
        "X = 1\n"
        "Y: int = 2\n"
        "def f(): pass\n"
        "class K: pass\n"
        "def g():\n"
        "    inner = 3\n"
        "__all__ = ['os', 'circle', 'X', 'Y', 'f', 'K', 'pi', 'inner', 'gone']\n")
    assert stale_exports(tree) == ["gone", "inner", "pi"]


def test_checker_flags_converted_sums():
    tree = ast.parse(
        "def f(terms, pairs):\n"
        "    a = sum_with_tail(map(from_mpf, terms), 0.5, tol)\n"
        "    b = series.sum_with_tail(pairs, 0.5, tol)\n"
        "    c = series.sum_with_tail(map(series.from_mpf, terms), 0.5, tol)\n"
        "    d = sum_with_tail(map(to_mpf, pairs), 0.5, tol)\n"
        "    return sum_with_tail(terms=map(from_mpf, terms), ratio_bound=0.5, tol=tol)\n")
    assert converted_sums(tree) == [2, 4, 6]


def test_checker_flags_monomial_products():
    tree = ast.parse(
        "def f(x, row, j):\n"
        "    a = row * UPoly.q_power(-j)\n"
        "    b = (x ** 2\n"
        "         * UPoly.u_power(j))\n"
        "    c = row.shift_u(-2 * j)\n"
        "    d = UPoly.q_power(j) + x\n"
        "    x *= upoly.UPoly.q_power(j)\n"
        "    e = x * q_power(j) * Other.u_power(j)\n"
        "    return UPoly.q_power(j) * row * 2\n")
    assert monomial_products(tree) == [2, 4, 7, 9]


def test_checker_flags_environment_reads():
    tree = ast.parse(
        "import os\n"
        "from os import environ, path\n"
        "def f(name):\n"
        "    a = os.environ.get(name)\n"
        "    b = os.getenv(name, '1')\n"
        "    c = os.path.join(name, 'x')\n"
        "    d = os.environb\n"
        "    return environ[name], a, b, c, d\n")
    assert environment_reads(tree) == [2, 4, 5, 7]


def test_no_dead_definitions():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in MODULES}
    dead = dead_definitions(trees)
    assert not dead, [f"{module}: {name} is never read" for module, name in dead]


def test_checker_flags_dead_definitions():
    trees = {
        "a.py": ast.parse(
            "def helper(): pass\n"
            "def dead(): pass\n"
            "def _dead_private(): pass\n"
            "def public(): pass\n"
            "__all__ = ['public']\n"
            "class Used: pass\n"
            "class Dead:\n"
            "    def method(self): pass\n"),
        "b.py": ast.parse(
            "from . import a\n"
            "from .a import Used\n"
            "def g():\n"
            "    return a.helper(), Used().method()\n"),
    }
    assert dead_definitions(trees) == [
        ("a.py", "dead"), ("a.py", "_dead_private"), ("a.py", "Dead"), ("b.py", "g")]


def test_no_dead_methods():
    def parse(path):
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    trees = {path.name: parse(path) for path in MODULES}
    dead = dead_methods(trees, [parse(path) for path in CALLERS])
    assert not dead, [f"{module}: {cls}.{name} is never read" for module, cls, name in dead]


def test_checker_flags_dead_methods():
    lib = ast.parse(
        "class K:\n"
        "    def used(self): pass\n"
        "    def referenced(self): pass\n"
        "    def dead(self): pass\n"
        "    def _dead_private(self): pass\n"
        "    def __add__(self, other): pass\n"
        "    @property\n"
        "    def size(self): pass\n"
        "def f():\n"
        "    class Inner:\n"
        "        def gone(self): pass\n"
        "    return Inner\n")
    caller = ast.parse(
        "from lib import K\n"
        "k = K()\n"
        "k.used(), k.size, K.referenced\n")
    assert dead_methods({"lib.py": lib}, [lib, caller]) == [
        ("lib.py", "K", "dead"), ("lib.py", "K", "_dead_private"), ("lib.py", "Inner", "gone")]


def unread_options(tree, rows) -> list:
    """(command, key) for each option a command row declares that its
    handler, a module-level function of tree, never reads as args.<dest>.
    rows are (command, handler name, {key: flag}); format and out are
    exempt, as main reads them for every command."""
    handlers = {node.name: node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    found = []
    for command, handler, options in rows:
        read = {node.attr for node in ast.walk(handlers[handler])
                if isinstance(node, ast.Attribute) and _name(node.value) == "args"}
        found += [(command, key) for key, flag in options.items()
                  if key not in ("format", "out")
                  and flag.lstrip("-").replace("-", "_") not in read]
    return found


def test_every_option_is_read():
    """A command takes no option that its handler ignores."""
    from qzeta import cli

    rows = [(name, handler.__name__, {key: cli._OPTIONS[key][0] for key in keys + cli._COMMON})
            for name, _, handler, keys in cli._COMMANDS]
    assert unread_options(_parse(SRC / "cli.py"), rows) == []


def test_checker_flags_unread_options():
    tree = ast.parse(
        "def _cmd_a(args):\n"
        "    return args.A + args.max_gap\n"
        "def _cmd_b(args):\n"
        "    return other.prec, args\n")
    rows = [("a", "_cmd_a", {"A": "--A", "fit-gap": "--max-gap", "prec": "--prec",
                             "out": "--out"}),
            ("b", "_cmd_b", {"prec": "--prec", "format": "--format"})]
    assert unread_options(tree, rows) == [("a", "prec"), ("b", "prec")]


# The public names that no module of the package, no script and no bench
# module reads, other than through each other: only tests call them.  Each
# is to become a registered claim or go (ROADMAP item 6); a new name here
# needs a caller instead.  classical_ball is the classical series that
# test_zeta3's q -> 1 degeneration tests compare the q-series against;
# delta_exact_pair, eisenstein_value and zetaq_even_in_basis are read only
# by verify_delta_recombination and zetaq_even_consistency.
TEST_ONLY = {"D_n", "classical_ball", "delta_exact_pair", "eisenstein_value",
             "verify_delta_recombination", "zetaq_even_consistency", "zetaq_even_in_basis"}


def outside_reads(trees, bench_trees, silent=frozenset()) -> set:
    """The names trees read, where a module-level function or class does
    not read itself and one named in silent reads nothing, plus every
    string constant of bench_trees: the bench calls and wraps the
    package's functions by name."""
    read = set()
    for tree in trees:
        for node in tree.body:
            defs = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if not (defs and node.name in silent):
                read |= _read(node) - ({node.name} if defs else set())
    for tree in bench_trees:
        read |= {node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return read


def only_tested(public, trees, bench_trees) -> set:
    """The names of public that outside_reads does not find when the ones
    found so far read nothing: a name that only test-only names read is
    test-only too."""
    found = set()
    while True:
        more = public - outside_reads(trees, bench_trees, found)
        if more == found:
            return found
        found = more


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_test_only_public_names():
    public = set().union(*(_exported(_parse(path)) for path in MODULES))
    bench = [_parse(path) for path in CALLERS if path.parent.name == "perfbench"]
    only_tests = only_tested(public, [_parse(path) for path in CALLERS], bench)
    assert only_tests == TEST_ONLY
    tests = set().union(*(_read(_parse(path)) for path in (ROOT / "tests").glob("test_*.py")))
    assert TEST_ONLY <= tests


def test_every_script_is_tested():
    """Each scripts/*.py is named by some other test module, so a script
    no test runs cannot come back unnoticed."""
    others = [path for path in (ROOT / "tests").glob("test_*.py") if path.name != "test_hygiene.py"]
    tests = "".join(path.read_text(encoding="utf-8") for path in others)
    untested = [path.name for path in sorted((ROOT / "scripts").glob("*.py"))
                if path.name not in tests]
    assert not untested, untested


def test_checker_reads_outside_names():
    lib = ast.parse(
        "def fact(n):\n"
        "    return 1 if n < 2 else n * fact(n - 1)\n"
        "def used(): pass\n"
        "def by_name(): pass\n"
        "class Node:\n"
        "    def copy(self):\n"
        "        return Node()\n"
        "def g():\n"
        "    return used()\n")
    bench = ast.parse("getattr(lib, 'by_name')()\n")
    read = outside_reads([lib, bench], [bench])
    assert {"used", "by_name"} <= read
    assert not {"fact", "Node"} & read


def test_checker_finds_test_only_names_transitively():
    lib = ast.parse(
        "def deep(): pass\n"
        "def helper():\n"
        "    return deep()\n"
        "def check():\n"
        "    return helper()\n"
        "def used(): pass\n"
        "COMMANDS = (used,)\n")
    public = {"deep", "helper", "check", "used"}
    assert public - outside_reads([lib], []) == {"check"}
    assert only_tested(public, [lib], []) == {"deep", "helper", "check"}


def protocol_names(source: str) -> set:
    """The member names the exact-ring protocol comment lists: each entry
    line is '#     name, name -- ...' or '#     name(args) -- ...'."""
    block = source.split("# The exact-ring protocol.", 1)[1].split("\n\n", 1)[0]
    entries = re.findall(r"^#     (\w+(?:, \w+)*)(?:\(.*\))? +--", block, re.M)
    return {name for entry in entries for name in entry.split(", ")}


def _public(obj) -> set:
    return {name for name in dir(obj) if not name.startswith("_")}


def test_rings_expose_the_protocol():
    names = protocol_names((SRC / "series.py").read_text(encoding="utf-8"))
    assert names == {"one", "zero", "pole_factor", "div_pole_base", "pole_sums"}
    assert _public(UPolyRing) == _public(FractionRing(Fraction(1, 3))) == names
    assert not any(hasattr(ring, "divexact")
                   for ring in (UPolyRing, FractionRing(Fraction(1, 3))))


def test_checker_reads_protocol_names():
    source = ("# The exact-ring protocol.  Both rings:\n"
              "#     one, zero               -- units\n"
              "#     qpow(m)                 -- q^m\n"
              "#                                divexact(a, b) -- a continuation\n"
              "#     pole_sums(rows, n, top) -- sums\n"
              "\n"
              "#     later(x)                -- not in the block\n")
    assert protocol_names(source) == {"one", "zero", "qpow", "pole_sums"}


NUMPY_PROBE = """
import contextlib, io, sys
import qzeta, qzeta.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert qzeta.cli.main(["delta", "--A", "12", "--r", "2"]) == 0
print("numpy" in sys.modules)
qzeta.asymptotics.fit_limit([(n, 1 / n) for n in range(1, 7)])
print("numpy" in sys.modules)
"""


def _run_fresh(code: str) -> str:
    """The output of code run by a fresh interpreter with the package on
    its path."""
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_numpy_is_loaded_only_by_the_fit():
    """A fresh interpreter imports qzeta and qzeta.cli and runs a command
    that fits no slope without loading numpy (about 0.1 s of a cold
    start); its first fit_limit call loads it."""
    assert _run_fresh(NUMPY_PROBE).split() == ["False", "True"]


def test_import_loads_neither_numpy_nor_dataclasses():
    """Importing qzeta and qzeta.cli loads none of numpy, dataclasses and
    inspect (which dataclasses imports, with ast and dis): the records
    are series.Record, and each module is a measurable share of a cold
    start."""
    code = ("import sys, qzeta, qzeta.cli\n"
            "print(sorted({'numpy', 'dataclasses', 'inspect'} & sys.modules.keys()))")
    assert _run_fresh(code).strip() == "[]"
