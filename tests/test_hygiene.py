"""Import hygiene: every name a module imports is read somewhere in it,
every name the benchmark reads from the package still exists, no
tolerance hides as a literal inside a function, no module indexes jet
coefficients as trailing axes, every formula replayed as a jet program is
checked against its eager run, only cubic's matcher enumerates
permutations, only jets.lift sums a polynomial's lift terms, no numeric
routine takes a random generator, and a CLI run loads no scipy module.

AST scans of the modules under src/ and tests/; package __init__.py files
are exempt from the import scan because their imports are the package's
re-exports.
"""

import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the import statements of source that it never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read)


def test_scan_finds_unread_imports():
    source = ("from __future__ import annotations\nimport os, os.path\n"
              "import numpy as np\nfrom a.b import c, d as e\n"
              "def f():\n    from g import h\n    return e(np.pi)\n")
    assert unused_imports(source) == ["c", "h", "os"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


# ---------------------------------------------------------------------------
# Tolerances are named: a float literal below SMALL_LITERAL belongs in a
# module-level constant, not in a function body.  Default parameter values
# are not part of a body.

SMALL_LITERAL = 1e-2
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def small_literals(source):
    """(line, value) of each float or complex literal of modulus in
    (0, SMALL_LITERAL) inside a function body of source."""
    found = []

    def visit(node, in_body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                visit(child, True)
            return
        if (in_body and isinstance(node, ast.Constant)
                and isinstance(node.value, (float, complex))
                and 0 < abs(node.value) < SMALL_LITERAL):
            found.append((node.lineno, node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, in_body)

    visit(ast.parse(source), False)
    return found


def test_scan_finds_small_literals_in_bodies():
    source = ("TOL = 1e-9\nTABLE = {'a': 1e-12}\n"
              "def f(x, tol=1e-8, *, h=1e-4):\n"
              "    y = x * 1e-3 + 0.5 - 0.01\n"
              "    g = lambda t, eps=1e-6: t > 2e-7\n"
              "    return y > -1e-12j and x < TOL\n"
              "class C:\n    SLACK = 1e-3\n"
              "    def m(self):\n        return 0.0 + 5e-3\n")
    assert small_literals(source) == [(4, 1e-3), (5, 2e-7), (6, 1e-12j),
                                      (10, 5e-3)]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_inline_tolerance(path):
    assert small_literals(path.read_text()) == []


# ---------------------------------------------------------------------------
# One coefficient layout: a jet's coefficient array is (K+1, K+1, *batch),
# so c[0, 0] is the constant term of one jet or of a batch.  Indexing that
# reaches the coefficients past the batch axes belongs to the old layout.

BATCH_FIRST = {"..., 0, 0", "..., None, None", "Ellipsis, 0, 0"}


def batch_first_indexing(source):
    """(line, subscript) of each [..., 0, 0], [..., None, None] and
    shape[:-2] in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript):
            index = ast.unparse(node.slice).strip("()")
            if index in BATCH_FIRST or (
                    index == ":-2" and "shape" in ast.unparse(node.value)):
                found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_scan_finds_batch_first_indexing():
    source = ("def f(c, k):\n    v = c[..., 0, 0] + c[0, 0] + c[..., 0]\n"
              "    w = k[..., None, None] * c + k[..., None]\n"
              "    return c.shape[:-2], np.shape(c)[:-2], c.shape[2:], v[:-2]\n"
              "g = lambda c: c[(Ellipsis, 0, 0)]\n")
    assert batch_first_indexing(source) == [
        (2, "c[..., 0, 0]"), (3, "k[..., None, None]"),
        (4, "c.shape[:-2]"), (4, "np.shape(c)[:-2]"),
        (5, "c[Ellipsis, 0, 0]")]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_batch_first_indexing(path):
    assert batch_first_indexing(path.read_text()) == []


# ---------------------------------------------------------------------------
# Jet programs: every formula a module passes to replay is one of the
# formulas test_jets.FORMULAS replays against their eager run, bit for bit.


def replayed_names(source):
    """Names passed as the formula (first argument) of replay calls."""
    return sorted({node.args[0].id for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Call) and node.args
                   and ast.unparse(node.func).split(".")[-1] == "replay"
                   and isinstance(node.args[0], ast.Name)})


def test_scan_finds_replayed_formulas():
    source = ("def f(a, b):\n    x = replay(_g, a, b) + other(_h, a)\n"
              "    return replay(fmt, *a), jets.replay(_k, b)\n")
    assert replayed_names(source) == ["_g", "_k", "fmt"]


def test_every_replayed_formula_is_checked_against_its_eager_run():
    import test_jets

    checked = {fn for fn, _ in test_jets.FORMULAS}
    replayed = {getattr(importlib.import_module(f"hexweb.{path.stem}"), name)
                for path in SOURCES for name in replayed_names(
                    path.read_text())}
    assert len(replayed) >= 6
    assert all(callable(fn) and fn.__qualname__ == fn.__name__
               for fn in replayed)  # module-level functions
    assert replayed <= checked, sorted(f.__name__ for f in replayed - checked)


# ---------------------------------------------------------------------------
# One permutation matcher: cubic.PERMS is the table of the labellings of a
# triple, and cubic.least_cost_perm picks one of them per distance table.
# No other module-level statement of src/ enumerates the permutations, and
# only the matcher, the chain labeller and the Theorem 2 pairing call
# least_cost_perm.

MATCHER = {("cubic.py", "PERMS")}
PERM_CALLERS = {("cubic.py", "match_roots"), ("cubic.py", "chain_labels"),
                ("frobenius.py", "theorem2_residual")}


def permutation_sites(source):
    """(top-level name, line) of each use or import of
    itertools.permutations in source; the name is a function's or class's,
    or the targets of an assignment."""
    found = []
    for stmt in ast.parse(source).body:
        name = getattr(stmt, "name", None) or ", ".join(
            ast.unparse(t) for t in getattr(stmt, "targets", []))
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Attribute) and node.attr == "permutations"
                    or isinstance(node, ast.Name)
                    and node.id == "permutations"
                    or isinstance(node, ast.ImportFrom)
                    and node.module == "itertools"
                    and any(a.name == "permutations" for a in node.names)):
                found.append((name, node.lineno))
    return found


def test_scan_finds_permutations():
    source = ("import itertools as it\nfrom itertools import permutations\n"
              "P = list(it.permutations(range(3)))\n"
              "def f(x):\n    return [p for p in permutations(x)]\n"
              "class C:\n    def m(self):\n"
              "        return it.combinations(range(3), 2)\n")
    assert permutation_sites(source) == [("", 2), ("P", 3), ("f", 5)]


def test_one_permutation_matcher():
    sites = {(path.name, name) for path in SOURCES
             for name, _ in permutation_sites(path.read_text())}
    assert sites == MATCHER


def least_cost_perm_callers(source):
    """(top-level name, line) of each call of least_cost_perm in source,
    bare or through a module; the name is the enclosing module-level
    function's or class's ("" at module level)."""
    found = []
    for stmt in ast.parse(source).body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call) and ast.unparse(node.func).split(
                    ".")[-1] == "least_cost_perm"):
                found.append((getattr(stmt, "name", ""), node.lineno))
    return found


def test_scan_finds_least_cost_perm_calls():
    source = ("from .cubic import least_cost_perm\n"
              "k = least_cost_perm(d)\n"
              "def f(d):\n    return cubic.least_cost_perm(d)[0]\n"
              "class C:\n    def m(self, d):\n"
              "        return [least_cost_perm(e) for e in d]\n"
              "def g(d):\n    pick = least_cost_perm\n    return pick\n")
    assert least_cost_perm_callers(source) == [("", 2), ("f", 4), ("C", 7)]


def test_only_the_matchers_call_least_cost_perm():
    sites = {(path.name, name) for path in SOURCES
             for name, _ in least_cost_perm_callers(path.read_text())}
    assert sites == PERM_CALLERS


# ---------------------------------------------------------------------------
# One lift loop: jets.lift is the one loop that sums a polynomial's lift
# terms.  jets._term_table builds the term tables (it alone takes a lift
# term's binomials), lift alone calls it and reads a table, and an owner of a
# group of polynomials only makes its dict of tables and hands it to lift.

LIFT_LOOP = {("jets.py", "_term_table"), ("jets.py", "lift")}


def term_table_sites(source):
    """(function, line) of each read of a lift term table in source: a use of
    _term_table or of comb, a read of a *lift_tables dict other than as an
    argument of a lift or lift_jets call, or an augmented assignment that
    takes a power with a variable exponent (terms summed by hand).  The
    function is the innermost enclosing def ("" at module level)."""
    tree, found, passed = ast.parse(source), [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(
                ".")[-1] in ("lift", "lift_jets"):
            passed.update(id(a) for a in node.args + [
                k.value for k in node.keywords])

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if (isinstance(getattr(node, "ctx", None), ast.Load)
                and (name in ("_term_table", "comb")
                     or str(name).endswith("lift_tables")
                     and id(node) not in passed)):
            found.append((where, node.lineno))
        if isinstance(node, ast.AugAssign) and any(
                isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
                and not isinstance(n.right, (ast.Constant, ast.BinOp))
                for n in ast.walk(node.value)):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def test_scan_finds_term_table_reads():
    source = ("import math\nfrom math import comb\n"
              "def lift(polys, base, order, tables):\n"
              "    return _term_table(polys, order)\n"
              "class F:\n    def __init__(self):\n"
              "        self._lift_tables = {}\n"
              "    def coeffs(self, x, y):\n"
              "        return lift(self.p, (x, y), 0, self._lift_tables)\n"
              "    def first_order(self, x, y):\n"
              "        return [t for t in self._lift_tables[1]]\n"
              "def f(pot, e, j):\n"
              "    k = math.comb(e, j) + comb(e, j)\n"
              "    return lift_jets(P, b, 0, tables=pot._f3_lift_tables), k\n"
              "g = lambda p: p._lift_tables\n"
              "def h(x, y, terms, tol, err):\n"
              "    t = 0j\n    for e1, e2, cc in terms:\n"
              "        t += cc * x ** e1 * y ** 2\n"
              "    t *= (tol / err) ** (1.0 / 3.0)\n"
              "    return t\n")
    assert term_table_sites(source) == [("lift", 4), ("first_order", 11),
                                        ("f", 13), ("f", 13), ("", 15),
                                        ("h", 19)]


def test_one_lift_loop():
    sites = {(path.name, name) for path in SOURCES
             for name, _ in term_table_sites(path.read_text())}
    assert sites == LIFT_LOOP


# ---------------------------------------------------------------------------
# One code generator: jets.lift alone turns source into code (its function
# for a term table at a point); no other function of src/ uses the builtins
# exec, eval or compile.

CODE_GENERATORS = {("jets.py", "lift")}


def code_generation_sites(source):
    """(function, line) of each use of the names exec, eval and compile in
    source (attributes such as re.compile are not the builtins); the
    function is the innermost enclosing def ("" at module level)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Name) and node.id in ("exec", "eval",
                                                      "compile"):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_scan_finds_code_generation():
    source = ("import re\nPAT = re.compile('x')\nrun = exec\n"
              "def lift(src, scope):\n    exec(src, scope)\n"
              "class C:\n    def m(self, s):\n"
              "        return eval(compile(s, '<s>', 'eval'))\n"
              "def f(text):\n    return re.compile(text).match\n")
    assert code_generation_sites(source) == [("", 3), ("lift", 5), ("m", 8),
                                             ("m", 8)]


def test_only_lift_generates_code():
    sites = {(path.name, name) for path in SOURCES
             for name, _ in code_generation_sites(path.read_text())}
    assert sites == CODE_GENERATORS


# ---------------------------------------------------------------------------
# No random knob: the idempotents come from fixed algebra elements, so no
# function of src/ takes an rng, except three frobenius routes that keep the
# keyword (accepted and ignored) for callers outside src/.  cli.py is
# exempt: its command runners get the --seed generator that draws their
# sample points.

RNG_KEPT = {("frobenius.py", "theorem2_residual"),
            ("frobenius.py", "booklet_directions"),
            ("frobenius.py", "frobenius_transport")}


def rng_parameters(source):
    """Names of the functions (and lambdas) in source with a parameter
    named rng."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                v for v in (a.vararg, a.kwarg) if v]
            if any(p.arg == "rng" for p in params):
                found.append(getattr(node, "name", "<lambda>"))
    return sorted(found)


def test_scan_finds_rng_parameters():
    source = ("def f(x, rng=None):\n    pass\n"
              "def g(x, *, rng):\n    return lambda rng: rng\n"
              "def h(x, seed, *rngs, **kw):\n    return rng(x)\n"
              "class C:\n    def m(self, rng, /):\n        pass\n")
    assert rng_parameters(source) == ["<lambda>", "f", "g", "m"]


def test_no_rng_parameter():
    found = {(path.name, name) for path in SOURCES if path.name != "cli.py"
             for name in rng_parameters(path.read_text())}
    assert found == RNG_KEPT


# ---------------------------------------------------------------------------
# Names the benchmark reads from outside the package.  perfbench/ rebinds
# them by name and its hooks read result fields, so a rename must fail here
# rather than in a benchmark run.

def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = load_tracing().TRACED
    assert len(traced) >= 30
    for owner, attr, _span, _hook in traced:
        assert callable(getattr(owner, attr)), (owner, attr)


def test_names_the_benchmark_self_test_reads():
    import hexweb.cli
    import hexweb.webgeo

    assert callable(hexweb.cli.integrate_leaf)
    assert callable(hexweb.cli.normalize_roots)
    assert hexweb.webgeo.gamma_cubic is hexweb.chern.gamma_cubic


@pytest.mark.parametrize("cls,name", [("Leaf", "points"),
                                      ("Leaf", "termination"),
                                      ("FirstIntegralState", "nodes")])
def test_result_fields_the_tracer_hooks_read(cls, name):
    import hexweb.webgeo

    fields = dataclasses.fields(getattr(hexweb.webgeo, cls))
    assert name in {f.name for f in fields}


# ---------------------------------------------------------------------------
# Start-up: numpy is the one runtime dependency.  A `normalforms` run solves
# the F(t) ODE of form 6, once the only use of scipy, in a fresh process.

STARTUP_PROBE = """
import json, sys
import hexweb, hexweb.cli
assert hexweb.cli.main(["normalforms", "--config", sys.argv[1],
                        "--out", sys.argv[2]]) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy")))
"""


def test_cli_run_loads_no_scipy(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"input": {"kind": "potential", "case": "A"}}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, str(cfg), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == []
    assert (tmp_path / "out" / "normalforms.json").is_file()
