"""The pointwise transform value and the membership tests built on it.

``algebra._transform_value`` sums lam**n a_n(y) from the coefficient
values at y.  It must give what evaluating the whole transform function
``fourier_func`` gives, bit for bit on the finite, shift and union models;
``tilde_member`` and ``ideal_member_via_S`` must answer as a test built on
``fourier_func`` answers, and at a periodic point build no function at all.
"""

import random
from fractions import Fraction

import pytest

from crossedprod import dynsys, finite, rotation, transform, union
from crossedprod import shift as shift_model
from crossedprod.algebra import (
    _transform_value, alg_add, alg_mul, element, fourier_eval, fourier_func, from_func,
    unify_lam,
)
from crossedprod.dynsys import INF, Func, RotationSystem, pt
from crossedprod.parsing import parse_elem, parse_ideal, parse_scalar_text
from crossedprod.reps_ideals import generated_ideal
from crossedprod.sampling import random_element, random_func, random_member, random_unimodular
from crossedprod.transform import (
    FiniteRoots, TorusEntry, TorusSubset, ideal_member_via_S, lamset_roots, tilde_member,
    zeros_of_ideal,
)

EXACT_LAMS = ("1", "-1", "i", "3/5+4/5i", "-5/13+12/13i")


def _points(system):
    """Every point of a finite system; a few of the shift's and the rotation's."""
    if isinstance(system, dynsys.ShiftSystem):
        return [pt(INF), pt(0), pt(2), pt(-3)]
    if isinstance(system, dynsys.RotationSystem):
        return [pt(Fraction(k, 4)) for k in range(4)] + [pt(0.3), pt(0.71)]
    if isinstance(system, dynsys.UnionSystem):
        return [pt(INF, 0), pt(1, 0), pt(-2, 0)] + [pt(k, 1) for k in range(3)]
    return system.points()


@pytest.fixture
def systems(cycle3, perm1235, shift, shift_union_cycle3):
    return {"cycle3": cycle3, "perm1235": perm1235, "shift": shift,
            "union": shift_union_cycle3}


@pytest.mark.parametrize("name", ["cycle3", "perm1235", "shift", "union"])
@pytest.mark.parametrize("exact", [False, True])
def test_the_value_is_the_transform_function_at_the_point(systems, name, exact):
    system = systems[name]
    rng = random.Random(f"{name}-{exact}")
    for _ in range(6):
        a = random_element(system, rng, 3, exact=exact)
        lams = [parse_scalar_text(t, True) for t in EXACT_LAMS] + \
            [random_unimodular(rng) for _ in range(3)]
        for lam in lams:
            b, mu = unify_lam(a, lam)
            for y in _points(system):
                want = system.eval(fourier_func(a, lam), y)
                assert _transform_value(b, mu, y) == want
                assert fourier_eval(a, y, lam) == want


def test_the_value_on_a_rational_rotation_is_the_transform_function_at_the_point():
    system = RotationSystem(Fraction(1, 4), irrational=False)  # theta 1/4 irrational false
    rng = random.Random(4)
    for _ in range(6):
        a = random_element(system, rng, 3)
        for lam in [parse_scalar_text(t, True) for t in EXACT_LAMS] + [random_unimodular(rng)]:
            for y in _points(system):
                want = system.eval(fourier_func(a, lam), y)
                assert abs(_transform_value(*unify_lam(a, lam), y) - want) <= 1e-12
                assert abs(fourier_eval(a, y, lam) - want) <= 1e-12


def test_the_value_of_the_zero_element_is_zero_in_its_mode(cycle3):
    zero = element(cycle3, {})
    assert _transform_value(zero, 1j, pt(0)) == 0j
    assert fourier_eval(zero, pt(0), parse_scalar_text("i", True)) == 0j


# ---------------------------------------------------------------------------
# Membership against an oracle on whole transform functions


def _tilde_oracle(T, a, tol=transform.DEFAULT_TOL):
    """The transform at each root, a whole function, vanishes on each
    entry's orbit closure; the full circle asks every coefficient to."""
    system = T.system
    for e in T.entries:
        closure = system.orbit_closure(e.point)
        roots = lamset_roots(e.lamset)
        funcs = a.coeffs.values() if roots is None else [fourier_func(a, mu) for mu in roots]
        if not all(system.vanishes_on(f, closure, tol) for f in funcs):
            return False
    return True


def _seeded_cases(system, exact, rng):
    """(torus set, element) pairs: zero sets of generated ideals with a
    member (a product through a generator) and a non-member each."""
    text = {"cycle3": "1 - d^3", "perm1235": "f{0:1,1:1,2:1,3:1,4:1,5:1}*(1 + d^2)",
            "shift": "1 - d", "union": "u[sh{inf:1};f{0:1,1:1,2:1}]*(1 - d^3)"}
    for name, gen in text.items():
        sysm = system[name]
        g = parse_elem(gen, sysm, exact)
        for _ in range(3):
            g2 = alg_mul(g, random_element(sysm, rng, 1, exact=exact))
            T = zeros_of_ideal(generated_ideal(sysm, [g, g2]))
            b, c = (random_element(sysm, rng, 1, exact=exact) for _ in range(2))
            yield T, alg_mul(alg_mul(b, g), c)
            yield T, random_element(sysm, rng, 2, exact=exact)


@pytest.mark.parametrize("exact", [False, True])
def test_membership_matches_the_oracle_on_seeded_ideals(systems, exact, monkeypatch):
    rng = random.Random(21 + exact)
    cases = list(_seeded_cases(systems, exact, rng))
    got = [(tilde_member(T, a), ideal_member_via_S(T, a)) for T, a in cases]
    monkeypatch.setattr(transform, "tilde_member", _tilde_oracle)  # via_S asks the oracle
    want = [(_tilde_oracle(T, a), ideal_member_via_S(T, a)) for T, a in cases]
    assert got == want
    assert {t for t, _ in got} == {True, False}


@pytest.mark.parametrize("exact", [False, True])
def test_membership_at_an_aperiodic_shift_point_with_explicit_roots(shift, exact, monkeypatch):
    """The orbit closure of an integer is the whole space, so the transform
    at i must vanish everywhere: f(1 + i d) does, for every function f."""
    rng = random.Random(5)
    T = TorusSubset(shift, (TorusEntry(pt(0), FiniteRoots((1j,))),))
    factor = parse_elem("1 + i*d", shift, exact)
    cases = []
    for _ in range(4):
        f = random_func(shift, rng, exact)
        member = alg_mul(from_func(f), factor)
        cases += [member, alg_add(member, random_element(shift, rng, 1, exact=exact))]
    got = [(tilde_member(T, a), ideal_member_via_S(T, a)) for a in cases]
    monkeypatch.setattr(transform, "tilde_member", _tilde_oracle)
    assert got == [(_tilde_oracle(T, a), ideal_member_via_S(T, a)) for a in cases]
    assert [t for t, _ in got] == [True, False] * 4


# ---------------------------------------------------------------------------
# No function is built at a periodic point


def _count_funcs(monkeypatch) -> list:
    """Count every Func built from here on, checked or trusted."""
    made = []
    trusted = dynsys._func

    def counting(system, data, exact):
        made.append(data)
        return trusted(system, data, exact)

    for module in (dynsys, finite, shift_model, rotation, union):
        monkeypatch.setattr(module, "_func", counting)
    checked = Func.__init__

    def counting_init(self, system, data):
        made.append(data)
        checked(self, system, data)

    monkeypatch.setattr(Func, "__init__", counting_init)
    return made


def test_tilde_member_at_a_periodic_point_builds_no_function(cycle3, shift_union_cycle3,
                                                             monkeypatch):
    rng = random.Random(7)
    cases = []
    for system, handle in ((cycle3, "Pxl(0, 1)"), (shift_union_cycle3, "Pxl(c1:0, -1)")):
        I = parse_ideal(handle, system)
        T = zeros_of_ideal(I)
        assert lamset_roots(T.entries[0].lamset)  # explicit roots at a periodic point
        cases += [(T, random_member(I, rng, 2)), (T, random_element(system, rng, 2))]
    made = _count_funcs(monkeypatch)
    answers = [tilde_member(T, a) for T, a in cases]
    assert answers == [True, False, True, False]
    assert made == []
    fourier_func(cases[0][1], 1j)  # the counter does see a function built
    assert made
