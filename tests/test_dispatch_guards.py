"""Each ideal handle answers for itself, no type is a placeholder, the
library runs without numpy, and a cold start generates no code.

Guards over the library source, read with ``ast``: no module asks an ideal
handle, a system or a lambda set for its class (each answers through its
methods), the parser imports no model's module (each system class reads
its own syntax) and holds no ideal or torus word (those layers read their
own literals), each model's set class lives in its model's module, no module binds a type name to ``object`` in place of a real class, no module
imports numpy, no module imports ``dataclasses`` or calls ``exec``,
``eval`` or ``compile``, and the layers above the models ask the system
directly: they import nothing from ``funcspace`` and, of the checked entry
points of ``dynsys``, only the two that check what a public name is
handed.  Fresh interpreters check what ``import crossedprod.cli`` loads,
that a command which finds unit-circle roots loads no numpy, that a
command on a finite config loads only the layers it runs and no other
model's module, and that the commands on it, ``check`` included, load no
``funcspace``; ``avg`` on the golden rotation loads the layers it loaded
when it averaged by twisted products, and no more.  In the checking kit
only ``galois.Tally`` counts a check or collects a failure line, and of the
models only the base ``dynsys._Model`` defines ``is_free`` and
``orbit_points``.  The exact oracles ``alg_norm``, ``alg_adj``,
``rep_periodic`` and ``Pxl`` membership construct no ``Fraction``.
"""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "crossedprod"


def isinstance_sites(source: str, hit) -> list[int]:
    """Lines calling isinstance against a class whose name passes hit, by
    name or as a module attribute (``ri.PxIdeal``)."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        kinds = node.args[1]
        names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        if any(hit(getattr(n, "id", getattr(n, "attr", ""))) for n in names):
            sites.append(node.lineno)
    return sites


def is_ideal_class(name: str) -> bool:
    return name.endswith("Ideal") or name == "IdealHandle"


def is_system_class(name: str) -> bool:
    return name.endswith("System")


def is_dispatch_class(name: str) -> bool:
    """An ideal handle, system or lambda set class: each answers for itself."""
    return (is_ideal_class(name) or is_system_class(name)
            or name in ("FullCircle", "FiniteRoots", "PolynomialRoots"))


MODEL_MODULES = {"finite", "shift", "rotation", "union"}


def model_imports(source: str) -> list[int]:
    """Lines importing a model module: ``from .finite import ...``,
    ``from . import shift``, ``import crossedprod.union`` and the like."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
        else:
            continue
        if any(set(n.split(".")) & MODEL_MODULES for n in names):
            sites.append(node.lineno)
    return sites


def object_placeholders(source: str) -> list[int]:
    """Lines of module-level ``Name = object`` bindings."""
    return [node.lineno for node in ast.parse(source).body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
            and node.value.id == "object"]


def test_guards_find_what_they_look_for():
    src = ("IdealHandle = object\n"
           "isinstance(I, (PxIdeal, int))\n"
           "isinstance(S, FiniteSet)\n"
           "def f():\n    Local = object\n    return isinstance(I, IdealHandle)\n"
           "isinstance(I, ri.QxIdeal)\n"
           "isinstance(ls, (FullCircle, tr.PolynomialRoots)) or isinstance(r, FiniteRootsLike)\n")
    assert sorted(isinstance_sites(src, is_ideal_class)) == [2, 6, 7]
    assert sorted(isinstance_sites(src, is_dispatch_class)) == [2, 6, 7, 8]
    assert object_placeholders(src) == [1]
    src = ("isinstance(s, FiniteSystem)\n"
           "isinstance(s, (int, dynsys.UnionSystem))\n"
           "isinstance(S, ShiftSet)\n"
           "from .rotation import Surd\n"
           "from . import scalars, union\n"
           "import crossedprod.shift as sh\n"
           "def f():\n    from .finite import FiniteSystem\n"
           "from .funcspace import finite_func\n")
    assert sorted(isinstance_sites(src, is_system_class)) == [1, 2]
    assert model_imports(src) == [4, 5, 6, 8]


def test_no_module_branches_on_a_handle_system_or_lambda_set_class():
    found = {path.name: isinstance_sites(path.read_text(), is_dispatch_class)
             for path in sorted(SRC.glob("*.py"))}
    assert not any(found.values()), f"isinstance against dispatch classes: {found}"


def test_the_parser_names_no_model():
    # each system class reads its own syntax; the parser shares the rest
    source = (SRC / "parsing.py").read_text()
    assert isinstance_sites(source, is_system_class) == []
    assert model_imports(source) == []


def string_constants(source: str, words) -> list[int]:
    """Lines of string constants equal to one of words, docstrings left out."""
    tree = ast.parse(source)
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in words and id(node) not in docs]


def set_classes(source: str) -> list[int]:
    """Lines defining a class whose name ends in ``Set``, at any depth."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and node.name.endswith("Set")]


IDEAL_AND_TORUS_WORDS = {"Px", "Pxl", "Qx", "K", "meet", "gen", "t", "full", "roots", "poly"}


def test_literal_guards_find_what_they_look_for():
    src = ('"""Px(point) and t[...] are read elsewhere."""\n'
           "def f(s):\n    \"Px\"\n    return s.expect_name(\"Px\", 'gen', \"x\")\n"
           "class A:\n    'full'\n    word = 'poly' if t else ('t', 'Kx')\n"
           "class ShiftSet:\n    class InnerSet:\n        pass\n"
           "UnionSet = 1\nclass Setter:\n    pass\n")
    assert string_constants(src, IDEAL_AND_TORUS_WORDS) == [4, 4, 7, 7]
    assert set_classes(src) == [8, 9]


def test_each_set_class_lives_in_its_models_module():
    from crossedprod import CircleSet, FiniteSet, ShiftSet, UnionSet
    homes = {FiniteSet: "finite", ShiftSet: "shift", CircleSet: "rotation", UnionSet: "union"}
    assert {cls: cls.__module__ for cls in homes} == {
        cls: f"crossedprod.{m}" for cls, m in homes.items()}
    assert set_classes((SRC / "dynsys.py").read_text()) == []


def test_the_parser_holds_no_ideal_or_torus_word():
    # the ideal and transform layers read their own literals
    assert string_constants((SRC / "parsing.py").read_text(), IDEAL_AND_TORUS_WORDS) == []


def test_no_placeholder_type_aliases():
    found = {path.name: object_placeholders(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert not any(found.values()), f"Name = object placeholders: {found}"


def numpy_sites(source: str) -> list[int]:
    """Lines importing numpy, anywhere: an import statement or an
    ``importlib.import_module``/``__import__`` call on a literal name."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            f = node.func
            called = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
            names = [str(node.args[0].value)] if called in ("import_module", "__import__") else []
        else:
            continue
        if any(n.split(".")[0] == "numpy" for n in names):
            sites.append(node.lineno)
    return sites


def test_numpy_guard_finds_what_it_looks_for():
    src = ("import numpy as np\n"
           "def f(p):\n    import numpy\n    from numpy import roots as r\n"
           "    return np.roots(p), numpy.roots(p), r(p), g.roots(p)\n"
           "if p:\n    import numpy.linalg\n"
           "importlib.import_module('numpy'), __import__('numpy.fft'), import_module('json')\n"
           "import numbers\nfrom . import numpy_like\n")
    assert numpy_sites(src) == [1, 3, 4, 7, 8, 8]


def test_one_root_finder_and_numpy_off_the_import_path():
    # the one root kernel runs on its own engine: numpy is a test-only
    # reference, so no module may import it, even inside a function
    found = {path.name: numpy_sites(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert not any(found.values()), f"numpy imports: {found}"


def codegen_sites(source: str) -> list[int]:
    """Lines importing ``dataclasses`` or calling ``exec``, ``eval`` or
    ``compile``: each compiles source text at run time."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(a.name.split(".")[0] == "dataclasses" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").split(".")[0] == "dataclasses"
        else:
            hit = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id in ("exec", "eval", "compile"))
        if hit:
            sites.append(node.lineno)
    return sites


def test_codegen_guard_finds_what_it_looks_for():
    src = ("import dataclasses as dc\n"
           "from dataclasses import field\n"
           "def f(s):\n    exec(s)\n    return eval(s), compile(s, 'x', 'eval'), re.compile(s)\n"
           "from .records import record\n")
    assert codegen_sites(src) == [1, 2, 4, 5, 5]


def test_library_generates_no_code():
    found = {path.name: codegen_sites(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert not any(found.values()), f"dataclasses imports or exec/eval/compile calls: {found}"


COLD_START_FREE = {"dataclasses", "inspect", "hashlib", "json", "numpy"}
COLD_PROBE = ("crossedprod.cli", "json", "inspect")


@functools.lru_cache(maxsize=None)
def modules_added(*imports: str) -> tuple:
    """For each import in turn, run in one fresh interpreter, the top-level
    modules it adds to those the interpreter already held."""
    script = ("import importlib, sys\n"
              "for name in sys.argv[1:]:\n"
              "    held = set(sys.modules)\n"
              "    importlib.import_module(name)\n"
              "    print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - held})))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", script, *imports], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return tuple(set(line.split()) for line in out.splitlines())


def test_cold_start_guard_finds_what_it_looks_for():
    _, after_json, after_inspect = modules_added(*COLD_PROBE)
    assert "json" in after_json and "inspect" in after_inspect


def test_cold_cli_import_loads_no_heavy_module():
    added = modules_added(*COLD_PROBE)[0]
    assert "crossedprod" in added and not added & COLD_START_FREE, sorted(added)


ROOT_COMMAND = ("--config", str(SRC.parent.parent / "tests" / "data" / "cycle3_exact.cfg"),
                "zeros", "--ideal", "gen(1 - d^3)")


def after_command(argv, preload=()) -> tuple:
    """In one fresh interpreter that first imports preload, the exit code and
    output of ``cli.run_command(argv)`` and the modules held then, by their
    full dotted names."""
    script = ("import contextlib, importlib, io, sys\n"
              f"for name in {list(preload)!r}:\n"
              "    importlib.import_module(name)\n"
              "from crossedprod.cli import run_command\n"
              "out = io.StringIO()\n"
              "with contextlib.redirect_stdout(out):\n"
              f"    code = run_command({list(argv)!r})\n"
              "print(code, ' '.join(sorted(sys.modules)))\n"
              "print(out.getvalue(), end='')\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    first, _, out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                   capture_output=True, text=True, timeout=60
                                   ).stdout.partition("\n")
    code, *held = first.split()
    return int(code), out, set(held)


def test_root_command_guard_finds_what_it_looks_for():
    assert "numpy" in after_command(ROOT_COMMAND, ("numpy",))[2]


def test_root_finding_command_loads_no_numpy():
    code, out, held = after_command(ROOT_COMMAND)
    assert code == 0 and "witness: parameter 1" in out  # the zero set's roots were found
    assert "crossedprod" in held and "numpy" not in held, sorted(held)


CYCLE3 = ("--config", str(SRC.parent.parent / "tests" / "data" / "cycle3_exact.cfg"))
IDEAL_LAYERS = {f"crossedprod.{m}" for m in (
    "checks", "galois", "sampling", "synthesis", "hullkernel", "reps_ideals", "transform")}
OTHER_MODELS = {"crossedprod.shift", "crossedprod.rotation", "crossedprod.union"}


def test_cold_path_guard_finds_what_it_looks_for():
    code, _, held = after_command(CYCLE3 + ("check", "--suite", "dual.average"),
                                  ("crossedprod.funcspace",))
    assert code == 0 and "crossedprod.checks" in held
    assert "crossedprod.funcspace" in held  # loaded first, so the guard must see it


def test_element_command_loads_no_ideal_layer_and_no_other_model():
    code, out, held = after_command(CYCLE3 + ("eval", "--elem", "d * f{0:1} * d^-1"))
    assert code == 0 and out == "f{0:0,1:1,2:0}\n"
    assert not held & (IDEAL_LAYERS | OTHER_MODELS), sorted(held & (IDEAL_LAYERS | OTHER_MODELS))


def test_ideal_command_on_a_finite_config_loads_no_other_model():
    code, out, held = after_command(
        CYCLE3 + ("member", "--ideal", "Pxl(0, 1)", "--elem", "1 - d^3"))
    assert code == 0 and out == "true\n"
    assert not held & OTHER_MODELS, sorted(held & OTHER_MODELS)


@pytest.mark.parametrize("command", [
    ("eval", "--elem", "d * f{0:1} * d^-1"),
    ("member", "--ideal", "Pxl(0, 1)", "--elem", "1 - d^3"),
    ("zeros", "--ideal", "gen(1 - d^3)"),
    ("zi", "--ideal", "gen(1 - d^3)"),
    ("hull", "--ideal", "gen(f{0:0,1:2,2:0})"),
    ("check", "--suite", "algebra.axioms"),
], ids=lambda c: c[0])
def test_commands_on_a_finite_config_load_no_funcspace(command):
    code, out, held = after_command(CYCLE3 + command)
    assert code == 0 and out, out
    assert "crossedprod.funcspace" not in held


ROTATION = ("--config", str(SRC.parent.parent / "tests" / "data" / "rotation_golden.cfg"))
# what averaging loaded when it formed the conjugates by twisted products
AVG_MODULES = {"crossedprod", *(f"crossedprod.{m}" for m in (
    "algebra", "cli", "dynsys", "errors", "parsing", "records", "reps_ideals", "rotation",
    "scalars", "synthesis", "transform"))}


def test_averaging_loads_no_module_beyond_its_layers():
    code, out, held = after_command(ROTATION + ("avg", "--elem", "1 + d + d^-1"))
    assert code == 0 and out.startswith("round order=0 residual=2\n"), out
    assert {m for m in held if m.startswith("crossedprod")} == AVG_MODULES, sorted(held)
    assert "numpy" not in held


LAYERS = ("algebra", "transform", "reps_ideals", "hullkernel", "galois", "synthesis",
          "sampling", "parsing", "checks")
BOUNDARY_CHECKS = {"validate_point", "is_invariant_closed"}


def imported_names(source: str, module: str) -> list[tuple[int, str]]:
    """(line, name) for each name imported from the package's module of that
    name, the module's own name when it is imported whole."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            sites += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            sites += [(node.lineno, module) for a in node.names if a.name == module]
        elif isinstance(node, ast.Import):
            sites += [(node.lineno, module) for a in node.names if module in a.name.split(".")]
    return sorted(sites)


def checked_functions(source: str) -> set:
    """The checked entry points of a module: its top-level functions that take
    the system first, as ``sys``."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.args.args
            and node.args.args[0].arg == "sys"}


def test_boundary_guard_finds_what_it_looks_for():
    src = ("from .funcspace import Func, f_eval\n"
           "from . import funcspace, scalars\n"
           "import crossedprod.funcspace as fs\n"
           "def f():\n    from .dynsys import period, validate_point, Point\n"
           "from crossedprod.dynsys import is_invariant_closed, orbit_closure\n"
           "from .funcspace_like import x\n")
    assert imported_names(src, "funcspace") == [
        (1, "Func"), (1, "f_eval"), (2, "funcspace"), (3, "funcspace")]
    assert imported_names(src, "dynsys") == [
        (5, "Point"), (5, "period"), (5, "validate_point"),
        (6, "is_invariant_closed"), (6, "orbit_closure")]
    src = ("def period(sys, x):\n    pass\n"
           "def pt(coord, *path):\n    pass\n"
           "class A:\n    def leaf(sys, path):\n        pass\n")
    assert checked_functions(src) == {"period"}
    checked = checked_functions((SRC / "dynsys.py").read_text())
    assert BOUNDARY_CHECKS | {"period", "apply_sigma", "orbit_points", "orbit_closure"} <= checked


def test_the_layers_ask_the_system_directly():
    # a value the library derived is not checked again: only the public
    # entry points check what they are handed, through these two
    checked = checked_functions((SRC / "dynsys.py").read_text()) - BOUNDARY_CHECKS
    found = {}
    for m in LAYERS:
        source = (SRC / f"{m}.py").read_text()
        sites = imported_names(source, "funcspace")
        sites += [s for s in imported_names(source, "dynsys") if s[1] in checked]
        if sites:
            found[m] = sites
    assert not found, f"checked functions imported by the layers: {found}"


COUNTERS = {"checked", "failures"}


def tally_sites(source: str) -> list[int]:
    """Lines outside ``class Tally`` that bind or bump a ``checked`` count or a
    ``failures`` list (as a name or an attribute), or append to or extend a
    ``failures`` list; a field annotation without a value binds nothing."""
    sites = []

    def visit(node):
        if (isinstance(node, ast.ClassDef) and node.name == "Tally"
                or isinstance(node, ast.AnnAssign) and node.value is None):
            return
        stored = (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store)
                  and getattr(node, "id", getattr(node, "attr", "")) in COUNTERS)
        f = getattr(node, "func", None)
        added = (isinstance(node, ast.Call) and isinstance(f, ast.Attribute)
                 and f.attr in ("append", "extend")
                 and getattr(f.value, "id", getattr(f.value, "attr", "")) == "failures")
        if stored or added:
            sites.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return sites


def test_tally_guard_finds_what_it_looks_for():
    src = ("checked = 0\n"
           "failures = []\n"
           "def f(t, r):\n    t.checked += 1\n"
           "    failures.append(f'{r!r}')\n"
           "    self.failures.extend(more)\n"
           "    n, checked = 1, 2\n"
           "class CheckReport:\n    checked: int\n    failures: tuple\n"
           "class Tally:\n    def check(self):\n        self.checked += 1\n"
           "        self.failures.append(1)\n"
           "total = sum(r.checked for r in reports), report.failures + other\n")
    assert tally_sites(src) == [1, 2, 4, 5, 6, 7]


def test_only_the_tally_counts_checks_and_collects_failures():
    # each law check and suite counts and reports through galois.Tally
    found = {m: tally_sites((SRC / f"{m}.py").read_text()) for m in ("galois", "checks")}
    assert not any(found.values()), f"checks counted outside Tally: {found}"


BASE_ANSWERS = {"is_free", "orbit_points"}


def methods_off_the_base(source: str, names) -> list[tuple[str, str]]:
    """(class, method) for each method named in names that a class other
    than ``_Model`` defines; module-level functions are not methods."""
    return [(node.name, item.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and node.name != "_Model"
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name in names]


def test_model_base_guard_finds_what_it_looks_for():
    src = ("class _Model:\n    def is_free(self):\n        pass\n"
           "class FiniteSystem(_Leaf):\n    def is_free(self):\n        return False\n"
           "    def is_minimal(self):\n        pass\n"
           "class UnionSystem(_Model):\n    def orbit_points(self, x):\n        pass\n"
           "def orbit_points(sys, x):\n    pass\n")
    assert methods_off_the_base(src, BASE_ANSWERS) == [
        ("FiniteSystem", "is_free"), ("UnionSystem", "orbit_points")]


def test_only_the_model_base_answers_freeness_and_orbit_points():
    # freeness is the absence of a periodic point, and an orbit is sigma
    # iterated over a period, for every model alike
    from crossedprod.dynsys import _Model
    found = {path.name: methods_off_the_base(path.read_text(), BASE_ANSWERS)
             for path in sorted(SRC.glob("*.py"))}
    assert not any(found.values()), f"is_free or orbit_points off the model base: {found}"
    assert BASE_ANSWERS <= set(vars(_Model))


def fractions_made(monkeypatch, run) -> int:
    """How many fractions.Fraction objects run() constructs."""
    from fractions import Fraction
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", counted)
        run()
    return len(made)


def exact_oracle_calls():
    """alg_norm, alg_adj, rep_periodic and Pxl membership on exact elements
    of the 11-point permutation (at a point of period 5) and the shift, each
    built before the calls run."""
    import random
    from fractions import Fraction
    from crossedprod import algebra, reps_ideals, scalars
    from crossedprod.dynsys import FiniteSystem, ShiftSystem, pt
    from crossedprod.sampling import random_element
    rng = random.Random(3)
    p11 = FiniteSystem(11, (0, 2, 1, 4, 5, 3, 7, 8, 9, 10, 6))
    lam, x = scalars.rational_circle_point(Fraction(2, 3)), pt(6)
    I = reps_ideals.canonical_px_lambda(p11, x, lam)
    elems = [random_element(p11, rng, 4, True) for _ in range(3)]
    elems.append(reps_ideals.escape_element(elems[0].coeff(0), lam, 5))  # a member
    shifted = random_element(ShiftSystem(), rng, 4, True)

    def run():
        for a in elems:
            algebra.alg_norm(a)
            algebra.alg_adj(a)
            reps_ideals.rep_periodic(p11, x, lam, a)
            reps_ideals.ideal_member(I, a)
        algebra.alg_norm(shifted)
        algebra.alg_adj(shifted)
    return run


def test_fraction_guard_finds_what_it_looks_for(monkeypatch):
    # the magnitude as it was formed before: a float of abs2's Fraction
    import math
    from crossedprod.scalars import QComplex
    run = exact_oracle_calls()
    monkeypatch.setattr(QComplex, "__abs__", lambda z: math.sqrt(float(z.abs2())))
    assert fractions_made(monkeypatch, run) > 0


def test_exact_oracles_build_no_fraction(monkeypatch):
    # the exact scalars are integer triples: a magnitude is rounded once
    # from the integers, a conjugate or negative keeps the normal form, and
    # the torus powers are integer arithmetic, so no Fraction is built
    assert fractions_made(monkeypatch, exact_oracle_calls()) == 0
