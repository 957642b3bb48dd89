"""Each value's repr is its literal: parsing it gives the value back.

Values are drawn from the five configs in ``tests/data`` and from a
rational rotation, both as written and as the library computes them: orbit
representatives and closures, hulls, zero sets, synthesized ideals and
canonical decompositions.  Floats print at 12 significant digits, so a
float read back must agree to that precision, and its repr must then be
unchanged; exact values and every other field must be equal.
"""

import functools
from numbers import Number
from pathlib import Path

import pytest

from crossedprod.algebra import from_func
from crossedprod.dynsys import is_periodic
from crossedprod.errors import UnsupportedQueryError
from crossedprod.hullkernel import decompose_as_intersection, hull
from crossedprod.parsing import (
    parse_config, parse_elem, parse_ideal, parse_point, parse_set, parse_torus,
)
from crossedprod.reps_ideals import canonical_px, canonical_qx, intersection_ideal, kernel_ideal
from crossedprod.transform import zi_closure

DATA = Path(__file__).resolve().parent / "data"
RATIONAL_ROTATION = "system rotation { theta 1/4 irrational false }"

# per config: element expressions, ideal literals and torus literals
WRITTEN = {
    "cycle3_exact.cfg": (
        ["f{0:1/3,1:-2/7+1/2i} * d^-2 + 3", "1 - d^3", "adj(d)*d + f{1:2}", "0"],
        ["Pxl(0, 3/5+4/5i)", "Qx(1)", "gen(1 - d^3, f{0:1}*(1 - d))", "K({0,1,2})",
         "meet(Qx(0), Pxl(0, 3/5+4/5i), gen(d - 1))"],
        ["t[0: roots{1,-1/2+0.866025403784i}; 1*: full]", "t[0: poly{-1,0,0,1}]", "t[]"]),
    "swapfix.cfg": (
        ["0.1 + 0.2*d - 123456.789*d^5", "1 - d^2", "f{0:0,1:1,2:1e-12} * 0.3"],
        ["gen(f{0:0,1:1,2:1e-12})", "Pxl(2, -1)", "Pxl(0, 0.6+0.8i)", "meet(Qx(2), K({0,1}))"],
        ["t[2: poly{-1,0,1}; 0*: full]", "t[0: roots{0.6-0.8i,-1}]"]),
    "shift.cfg": (
        ["sh{inf:1/2,-3:2}*d^-1 + sh{inf:0,4:1}", "sh{inf:0,1:1} * d - 1"],
        ["Px(3)", "Qx(inf)", "Pxl(inf, i)", "K(co{})", "K({inf})", "meet(Px(-2), Pxl(inf, -1))"],
        ["t[inf: roots{1,-1}; 5*: full]"]),
    "rotation_golden.cfg": (
        ["tp{1:0.5,-1:0.25}*d^2 + tp{0:1/3}", "tp{0:1} - d"],
        ["Px(0.123456789012)", "Px(1/7)", "gen(tp{0:1,1:-1})", "K(circle)"],
        ["t[0.25*: full]"]),
    "union_shift_cycle3.cfg": (
        ["u[sh{inf:1,2:3}; 0] * d", "u[sh{inf:1}; f{0:1}] - d^3"],
        ["Px(c0:0)", "Pxl(c1:0, 1)", "Qx(c0:inf)", "K(u[{inf}; {0,1,2}])",
         "meet(Px(c0:0), Pxl(c1:0, 1))"],
        ["t[c1:0: roots{1}; c0:inf*: full]"]),
    RATIONAL_ROTATION: (
        ["tp{0:1} - d^4", "tp{1:1}*d + 1", "tp{2:1/3,-1:2.5}"],
        ["Qx(1/4)", "Pxl(1/2, -1)", "gen(tp{0:1} - d^4)", "K(circle)"],
        ["t[1/4: poly{-1,0,0,0,1}; 0: roots{i}]"]),
}


def load(name):
    return parse_config(name if name == RATIONAL_ROTATION else (DATA / name).read_text())


def same(u, v) -> bool:
    """Equal values, with a float equal to 12 significant digits (a point
    read back may hold the integer turn 0.0 as Fraction(0), which is equal)."""
    if isinstance(u, Number) and isinstance(v, Number):
        if isinstance(u, (float, complex)) or isinstance(v, (float, complex)):
            return abs(u - v) <= 1e-11 * max(1.0, abs(u)) or u != u and v != v
        return u == v
    if type(u) is not type(v):
        return False
    if isinstance(u, (tuple, list)):
        return len(u) == len(v) and all(map(same, u, v))
    if isinstance(u, dict):
        return u.keys() == v.keys() and all(same(u[k], v[k]) for k in u)
    fields = getattr(type(u), "__record_fields__", None)
    if fields is None or type(u).__name__.endswith("System"):
        return u == v
    return all(same(getattr(u, k), getattr(v, k)) for k in fields)


def computed(f, items) -> list:
    """f of each item, skipping the items it does not support."""
    out = []
    for x in items:
        try:
            out.append(f(x))
        except UnsupportedQueryError:
            pass
    return out


@functools.cache
def values(name):
    """(reader, value) pairs: what the config writes and what it computes."""
    cfg = load(name)
    S, exact, tol = cfg.system, cfg.mode == "exact", cfg.tolerance
    elems, ideals, tori = WRITTEN[name]
    torus = [parse_torus(t, S, exact) for t in tori]
    points = [e.point for T in torus for e in T.entries]
    points += [x for reps in computed(type(S).orbit_reps, [S]) for x in reps]
    sets = [S.whole_space(), S.empty_set(), *computed(S.orbit_closure, points)]
    handles = [parse_ideal(t, S, exact) for t in ideals]
    handles += computed(lambda x: canonical_qx(S, x) if is_periodic(S, x)
                        else canonical_px(S, x), points)
    handles += computed(lambda T: kernel_ideal(S, T), sets)
    parts = computed(lambda T: decompose_as_intersection(S, T), sets)
    handles += [p for ps in parts for p in ps] + [intersection_ideal(S, ps) for ps in parts]
    # a synthesized ideal's torus parameters are roots, so floats in either mode
    closures = computed(lambda I: zi_closure(I, tol), handles)
    sets += computed(lambda I: hull(I, tol).subset, handles + closures)
    torus += computed(lambda I: I.zeros(tol), handles + closures)
    elements = [parse_elem(t, S, exact) for t in elems]
    read = {
        "point": lambda text: parse_point(text, S),
        "set": lambda text: parse_set(text, S),
        "ideal": lambda text: parse_ideal(text, S, exact),
        "closure": lambda text: parse_ideal(text, S, False),
        "torus": lambda text: parse_torus(text, S, exact),
        "element": lambda text: parse_elem(text, S, exact),
        "func": lambda text: parse_elem(text, S, exact).coeff(0),
        "lamset": lambda text: parse_torus(f"t[{points[0]!r}: {text}]", S, exact)
        .entries[0].lamset,
        "entry": lambda text: parse_torus(f"t[{text}]", S, exact).entries[0],
    }
    out = [("point", x) for x in points]
    out += [("set", T) for T in sets] + [("ideal", I) for I in handles]
    out += [("closure", I) for I in closures]
    out += [("torus", T) for T in torus] + [("element", a) for a in elements]
    out += [("func", f) for a in elements for f in a.coeffs.values()]
    out += [("func", a.coeff(0)) for a in elements]
    out += [("element", from_func(a.coeff(7))) for a in elements]
    out += [("entry", e) for T in torus for e in T.entries]
    out += [("lamset", e.lamset) for T in torus for e in T.entries]
    return [(read[kind], v) for kind, v in out]


CLASSES = {"Point", "FiniteSet", "ShiftSet", "CircleSet", "UnionSet", "Func", "Element",
           "PxIdeal", "PxLambdaIdeal", "QxIdeal", "KernelIdeal", "IntersectionIdeal",
           "GeneratedIdeal", "FullCircle", "FiniteRoots", "PolynomialRoots", "TorusEntry",
           "TorusSubset"}


@pytest.mark.parametrize("name", list(WRITTEN), ids=lambda n: "rational_rotation" if n == RATIONAL_ROTATION else n)
def test_every_literal_reads_back_as_its_value(name):
    for read, v in values(name):
        text = repr(v)
        again = read(text)
        assert same(again, v), (text, repr(again))
        assert repr(again) == text


def test_every_value_class_with_a_literal_is_drawn():
    assert {type(v).__name__ for name in WRITTEN for _, v in values(name)} == CLASSES


def test_the_literals_of_the_issue_cases():
    rot = load(RATIONAL_ROTATION).system
    assert repr(parse_ideal("Qx(1/4)", rot)) == "Qx(1/4)"
    cyc = load("cycle3_exact.cfg").system
    J = parse_ideal("meet(Pxl(0, 3/5+4/5i), gen(1 - d^3))", cyc, True)
    assert repr(J) == "meet(Pxl(0, 3/5+4/5i), gen(f{0:1,1:1,2:1} + f{0:-1,1:-1,2:-1}*d^3))"
    T = parse_torus("t[0: roots{1, -1}; 1*: full; 2: poly{-1,0,1}]", cyc, True)
    assert repr(T) == "t[0: roots{1,-1}; 1*: full; 2: poly{-1,0,1}]"
