"""Each ideal handle answers for itself, no type is a placeholder, there
is one unit-circle root finder, and a cold start generates no code.

Guards over the library source, read with ``ast``: the ideal modules never
ask a handle for its class (each kind answers through its methods), no
module binds a type name to ``object`` in place of a real class, numpy
is imported only inside functions, with one ``roots`` call in the library,
and no module imports ``dataclasses`` or calls ``exec``, ``eval`` or
``compile``.  One fresh interpreter checks what ``import crossedprod.cli``
loads.
"""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "crossedprod"
HANDLE_MODULES = ("reps_ideals.py", "hullkernel.py", "transform.py")


def ideal_isinstance_sites(source: str) -> list[int]:
    """Lines calling isinstance against an ideal class."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        kinds = node.args[1]
        names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        if any(isinstance(n, ast.Name) and (n.id.endswith("Ideal") or n.id == "IdealHandle")
               for n in names):
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
           "def f():\n    Local = object\n    return isinstance(I, IdealHandle)\n")
    assert ideal_isinstance_sites(src) == [2, 6]
    assert object_placeholders(src) == [1]


def test_ideal_modules_do_not_branch_on_the_handle_class():
    found = {name: ideal_isinstance_sites((SRC / name).read_text()) for name in HANDLE_MODULES}
    assert not any(found.values()), f"isinstance against ideal classes: {found}"


def test_no_placeholder_type_aliases():
    found = {path.name: object_placeholders(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert not any(found.values()), f"Name = object placeholders: {found}"


def numpy_sites(source: str) -> tuple[list[int], list[int]]:
    """Lines importing numpy outside a function body, and lines calling
    ``roots`` on a numpy module or on ``roots`` imported from numpy."""
    tree = ast.parse(source)
    in_functions = {id(n) for f in ast.walk(tree)
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for n in ast.walk(f)}
    outside, modules, finders = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hits = [a for a in node.names if a.name.split(".")[0] == "numpy"]
            modules.update(a.asname or a.name.split(".")[0] for a in hits)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            hits = node.names
            finders.update(a.asname or a.name for a in hits if a.name == "roots")
        else:
            continue
        if hits and id(node) not in in_functions:
            outside.append(node.lineno)
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr == "roots"
        and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
        or isinstance(node.func, ast.Name) and node.func.id in finders)]
    return outside, calls


def test_numpy_guard_finds_what_it_looks_for():
    src = ("import numpy as np\n"
           "def f(p):\n    import numpy\n    from numpy import roots as r\n"
           "    return np.roots(p), numpy.roots(p), r(p), g.roots(p)\n"
           "if p:\n    import numpy.linalg\n")
    assert numpy_sites(src) == ([1, 7], [5, 5, 5])


def test_one_root_finder_and_numpy_off_the_import_path():
    # a second finder would bring back a second band and dedupe rule, and a
    # module-level import would load numpy on every cold start
    sites = {path.name: numpy_sites(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    outside = {name: t for name, (t, _) in sites.items() if t}
    calls = {name: c for name, (_, c) in sites.items() if c}
    assert not outside, f"numpy imports outside functions: {outside}"
    assert sum(len(c) for c in calls.values()) == 1, f"numpy roots calls: {calls}"


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
