"""The union is the product of its components.

A one-component union answers every model question exactly as its component
does, once points, sets and functions are lifted into the union; a
two-component union answers componentwise, and so does a union nesting it:
each point question (``apply_sigma``, ``period``, ``orbit_points``) is the
leaf's answer lifted with ``in_component``.  Failures count as answers: the
same exception type must come out.
"""

import random
from fractions import Fraction

import pytest

from crossedprod.dynsys import (
    INF, CircleSet, FiniteSet, Point, ShiftSet, UnionSet, UnionSystem,
    apply_sigma, empty_set, in_component, is_free, is_invariant_closed,
    is_minimal, orbit_closure, period, pt, whole_space,
)
from crossedprod.errors import CrossedProdError
from crossedprod.funcspace import (
    Func, cx_basis, f_add, f_algnorm, f_compose_sigma, f_conj, f_eval, f_is_zero,
    f_mul, f_scale, f_supnorm_bounds, f_zero_set, point_indicator, separating_func,
    vanishes_on,
)
from crossedprod.sampling import random_func

SYSTEMS = ("cycle3", "swap_fix", "shift", "golden_rotation", "rational_rotation")


def answer(op, *args):
    try:
        return op(*args)
    except CrossedProdError as ex:
        return type(ex)


def sample_points(system):
    name = type(system).__name__
    if name == "FiniteSystem":
        return [pt(i) for i in range(system.size)]
    if name == "ShiftSystem":
        return [pt(0), pt(3), pt(INF)]
    return [pt(Fraction(0)), pt(Fraction(1, 3)), pt(0.25)]


def sample_sets(system, funcs):
    sets = [empty_set(system), whole_space(system)]
    sets += [f_zero_set(f) for f in funcs]
    sets += [orbit_closure(system, x) for x in sample_points(system)]
    sets += system.invariant_closed_sets() or []
    if type(system).__name__ == "ShiftSystem":
        sets += [ShiftSet(frozenset({1, 2})), ShiftSet(frozenset({-1}), True),
                 ShiftSet(frozenset({3}), True, True)]
    return sets


def sample_funcs(system, rng):
    funcs = [random_func(system, rng) for _ in range(3)]
    if type(system).__name__ == "ShiftSystem":
        funcs.append(Func(system, (0j, {2: 1 + 0j})))
    return funcs


def method(name):
    """The system method of that name, called as op(system, *args)."""
    return lambda system, *args: getattr(system, name)(*args)


# The model questions, grouped by the arguments they take besides the system.
SYSTEM_OPS = [
    empty_set, whole_space, is_free, is_minimal, method("some_periodic_point"),
    method("invariant_closed_sets"), method("points"), method("orbit_reps"),
    lambda s: cx_basis(s, (0, 1), 2),
]
POINT_OPS = [lambda s, x: apply_sigma(s, x, -2), period, orbit_closure, point_indicator,
             lambda s, x: s.apply_sigma(x, -2), method("period"), method("orbit_points")]
SET_OPS = [method("largest_invariant_subset"), is_invariant_closed,
           method("cover_representatives"), method("all_orbits_in")]
SET_PAIR_OPS = [method("union"), method("intersect"), method("subset")]
SET_POINT_OPS = [method("contains"), separating_func]
FUNC_OPS = [
    f_conj, lambda f: f_compose_sigma(f, 3), lambda f: f_scale(0.5 - 2j, f),
    f_supnorm_bounds, f_algnorm, f_zero_set, f_is_zero,
    lambda f: f.system.demote(f), lambda f: f.system.inverse(f),
]
FUNC_PAIR_OPS = [f_add, f_mul]


def lifted_into(U, i):
    """Lift a component answer (or argument) into component i of U."""
    def lift(v):
        if isinstance(v, (FiniteSet, ShiftSet, CircleSet, UnionSet)):
            parts = [empty_set(c) for c in U.components]
            parts[i] = v
            return UnionSet(tuple(parts))
        if isinstance(v, Point):
            return in_component(i, v)
        if isinstance(v, list):
            return [lift(w) for w in v]
        if isinstance(v, Func) and len(U.components) == 1:
            return Func(U, (v,))
        return v
    return lift


@pytest.mark.parametrize("name", SYSTEMS)
def test_one_component_union_answers_as_its_component(name, request):
    X = request.getfixturevalue(name)
    U = UnionSystem((X,))
    lift = lifted_into(U, 0)
    funcs = sample_funcs(X, random.Random(7))
    points, sets = sample_points(X), sample_sets(X, funcs)

    def same(op, *args, on_system=True):
        system_args = ((X,), (U,)) if on_system else ((), ())
        want = answer(op, *system_args[0], *args)
        got = answer(op, *system_args[1], *map(lift, args))
        assert got == lift(want), (op, args)

    for op in SYSTEM_OPS:
        same(op)
    for op in POINT_OPS:
        for x in points:
            same(op, x)
    for op in SET_OPS:
        for S in sets:
            same(op, S)
    for op in SET_PAIR_OPS:
        for A in sets:
            for B in sets:
                same(op, A, B)
    for op in SET_POINT_OPS:
        for S in sets:
            for x in points:
                same(op, S, x)
    for op in FUNC_OPS:
        for f in funcs:
            same(op, f, on_system=False)
    for op in FUNC_PAIR_OPS:
        for f in funcs:
            for g in funcs:
                same(op, f, g, on_system=False)
    for f in funcs:
        for x in points:
            same(f_eval, f, x, on_system=False)
        for S in sets:
            same(vanishes_on, f, S, on_system=False)


def assert_concatenated(U, got, want):
    """Point lists concatenate, lifted; else the first component failure."""
    failures = [w for w in want if isinstance(w, type)]
    if failures:
        assert got == failures[0]
    else:
        assert got == [y for i, w in enumerate(want) for y in lifted_into(U, i)(w)]


@pytest.mark.parametrize("names", [("cycle3", "shift"), ("golden_rotation", "cycle3"),
                                   ("swap_fix", "rational_rotation")])
def test_two_component_union_answers_componentwise(names, request):
    X, Y = (request.getfixturevalue(n) for n in names)
    U = UnionSystem((X, Y))
    rng = random.Random(11)
    fx, fy = sample_funcs(X, rng), sample_funcs(Y, rng)
    sx, sy = sample_sets(X, fx), sample_sets(Y, fy)
    pairs_f = [Func(U, (f, g)) for f, g in zip(fx, fy)]
    pairs_s = [UnionSet((A, B)) for A, B in zip(sx, sy)]

    # sets and functions: each component answers for its own part
    for F, (f, g) in zip(pairs_f, zip(fx, fy)):
        assert f_zero_set(F) == UnionSet((f_zero_set(f), f_zero_set(g)))
        assert f_conj(F) == Func(U, (f_conj(f), f_conj(g)))
        assert f_compose_sigma(F, -2) == Func(U, (f_compose_sigma(f, -2),
                                                  f_compose_sigma(g, -2)))
        assert f_mul(F, F) == Func(U, (f_mul(f, f), f_mul(g, g)))
        assert f_algnorm(F) == max(f_algnorm(f), f_algnorm(g))
        lo, hi = zip(f_supnorm_bounds(f), f_supnorm_bounds(g))
        assert f_supnorm_bounds(F) == (max(lo), max(hi))
        for S, (A, B) in zip(pairs_s, zip(sx, sy)):
            assert vanishes_on(F, S) == (vanishes_on(f, A) and vanishes_on(g, B))
    for S, (A, B) in zip(pairs_s, zip(sx, sy)):
        assert U.largest_invariant_subset(S) == UnionSet(
            (X.largest_invariant_subset(A), Y.largest_invariant_subset(B)))
        for T, (C, D) in zip(pairs_s, zip(sx, sy)):
            assert U.union(S, T) == UnionSet((X.union(A, C), Y.union(B, D)))
            assert U.subset(S, T) == (X.subset(A, C) and Y.subset(B, D))
        for op in (method("cover_representatives"), method("all_orbits_in")):
            assert_concatenated(U, answer(op, U, S), [answer(op, X, A), answer(op, Y, B)])

    # points: a point answers from the component its path names
    for i, (C, funcs) in enumerate(((X, fx), (Y, fy))):
        lift = lifted_into(U, i)
        for x in sample_points(C):
            assert answer(apply_sigma, U, lift(x), 5) == lift(answer(apply_sigma, C, x, 5))
            assert answer(period, U, lift(x)) == answer(period, C, x)
            assert answer(orbit_closure, U, lift(x)) == lift(answer(orbit_closure, C, x))
            for F, f in zip(pairs_f, funcs):
                assert f_eval(F, lift(x)) == f_eval(f, x)
    # the union's own point questions, and those of a union nesting it
    N = UnionSystem((Y, U))
    for i, C in enumerate((X, Y)):
        into_u, into_n = lifted_into(U, i), lifted_into(N, 1)
        for W, lift in ((U, into_u), (N, lambda v: into_n(into_u(v)))):
            for x in sample_points(C):
                for k in (-2, 0, 5):
                    assert answer(W.apply_sigma, lift(x), k) == lift(answer(C.apply_sigma, x, k))
                assert answer(W.period, lift(x)) == answer(C.period, x)
                assert answer(W.orbit_points, lift(x)) == lift(answer(C.orbit_points, x))
    reps = [answer(lambda s=s: s.orbit_reps()) for s in (U, X, Y)]
    assert_concatenated(U, reps[0], reps[1:])
    assert is_free(U) == (is_free(X) and is_free(Y))
    assert not is_minimal(U)  # each component is a proper invariant closed set
