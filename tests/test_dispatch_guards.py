"""Each ideal handle answers for itself, and no type is a placeholder.

Two guards over the library source, read with ``ast``: the ideal modules
never ask a handle for its class (each kind answers through its methods),
and no module binds a type name to ``object`` in place of a real class.
"""

import ast
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
