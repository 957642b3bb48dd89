"""The one unit-circle root kernel: repeated roots, near-coincident roots
and the band around the circle, directly and through its two callers
(the rotation zero set and the lambda sets of generated ideals)."""

import cmath
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossedprod.algebra import element
from crossedprod.dynsys import pt, turns_eq
from crossedprod.funcspace import const_func, f_zero_set, trig_poly
from crossedprod import scalars, transform
from crossedprod.reps_ideals import canonical_px_lambda, generated_ideal
from crossedprod.scalars import ABERTH_SWEEPS, ROOT_MATCH_TOL, aberth_roots, unit_circle_roots
from crossedprod.transform import (
    ideal_leq, lamset_roots, pth_roots, torus_contains, zeros_of_ideal,
)

TOL = 1e-9
POINTS = [1 + 0j, -1 + 0j, 1j, cmath.exp(2j * math.pi * 0.3)]


def poly_from_roots(roots) -> list:
    """Ascending coefficients of prod (z - r)."""
    c = [1 + 0j]
    for r in roots:
        c = [0j] + c
        for i in range(len(c) - 1):
            c[i] -= r * c[i + 1]
    return c


def turn(z) -> float:
    return (cmath.phase(z) / (2 * math.pi)) % 1.0


@pytest.mark.parametrize("coeffs", [[-1, 3, -3, 1], [1, -2, 1], [1, -4, 6, -4, 1]],
                         ids=["(z-1)^3", "(z-1)^2", "(z-1)^4"])
def test_repeated_root_at_one_is_found_once(coeffs, golden_rotation):
    roots = unit_circle_roots(coeffs, TOL)
    assert len(roots) == 1 and abs(roots[0] - 1) < 1e-9
    zs = f_zero_set(trig_poly(golden_rotation, dict(enumerate(coeffs))))
    assert len(zs.turns) == 1 and turns_eq(zs.turns[0], 0.0)


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("z0", POINTS, ids=["1", "-1", "i", "e(0.3)"])
def test_multiplicity_on_the_rotation(z0, k, golden_rotation):
    coeffs = poly_from_roots([z0] * k)
    zs = f_zero_set(trig_poly(golden_rotation, dict(enumerate(coeffs))))
    assert len(zs.turns) == 1 and turns_eq(zs.turns[0], turn(z0), 1e-6)


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("z0", POINTS, ids=["1", "-1", "i", "e(0.3)"])
def test_multiplicity_in_a_generated_ideal(z0, k, cycle3):
    # gen(sum_l c_l d^{3l}) with sum_l c_l w^l = (w - z0^3)^k: the lambda
    # set at the 3-cycle is mu^3 = z0^3, each cube root once
    coeffs = poly_from_roots([z0 ** 3] * k)
    a = element(cycle3, {3 * l: const_func(cycle3, c) for l, c in enumerate(coeffs)})
    Z = zeros_of_ideal(generated_ideal(cycle3, [a]))
    assert [e.point for e in Z.entries] == [pt(0)]
    roots = lamset_roots(Z.entries[0].lamset)
    want = [z0 * cmath.exp(2j * math.pi * j / 3) for j in range(3)]
    assert len(roots) == 3
    assert all(min(abs(r - w) for r in roots) < 1e-6 for w in want)


@pytest.mark.parametrize("gap,count", [(1e-3, 2), (1e-7, 1)])
def test_near_coincident_roots(gap, count):
    z0 = cmath.exp(2j * math.pi * 0.3)
    roots = unit_circle_roots(poly_from_roots([z0, z0 * cmath.exp(1j * gap)]), TOL)
    assert len(roots) == count
    assert all(abs(r - z0) < gap + ROOT_MATCH_TOL for r in roots)


@pytest.mark.parametrize("offset", [1e-8, -1e-8, 1e-6, -1e-6])
def test_band_around_the_circle(offset):
    kept = abs(offset) <= max(TOL, 1e-7)
    for r in (1 + offset, (1 + offset) * 1j):
        roots = unit_circle_roots(poly_from_roots([r, 2 + 0j]), TOL)
        assert len(roots) == kept and all(abs(u - r / abs(r)) < 1e-12 for u in roots)
    roots = unit_circle_roots({-2: 1 + offset, -1: -1}, TOL)  # a Laurent dict
    assert len(roots) == kept and all(abs(u - 1) < 1e-12 for u in roots)


def test_roots_are_sorted_by_phase():
    want = [cmath.exp(2j * math.pi * t) for t in (0.1, 0.45, 0.8)]
    roots = unit_circle_roots(poly_from_roots(want[::-1]), TOL)
    assert len(roots) == 3 and all(abs(r - w) < 1e-9 for r, w in zip(roots, want))


def assert_turns_normal(turns):
    assert all(0.0 <= t < 1.0 for t in turns) and list(turns) == sorted(turns)


@pytest.mark.parametrize("others", [
    [0.3717933555623072],
    [0.38075791704476514, 0.1019744021739154],
    [0.13876741839890316],
])
def test_planted_root_at_one_is_turn_zero(others, golden_rotation):
    # these roots at 1 come out with a tiny negative imaginary part, whose
    # turn -tiny % 1.0 rounds to 1.0 and sorted last
    coeffs = poly_from_roots([1 + 0j] + [cmath.exp(2j * math.pi * t) for t in others])
    zs = f_zero_set(trig_poly(golden_rotation, dict(enumerate(coeffs))))
    assert_turns_normal(zs.turns)
    assert zs.turns[0] == 0.0 and len(zs.turns) == len(others) + 1
    assert all(min(abs(t - u) for u in zs.turns) < 1e-9 for t in others)


def test_turns_stay_in_the_unit_interval(golden_rotation):
    rng = random.Random(5)
    for _ in range(200):
        turns = [0.0] + [rng.random() for _ in range(rng.randint(1, 4))]
        coeffs = poly_from_roots([cmath.exp(2j * math.pi * t) for t in turns])
        assert_turns_normal(f_zero_set(trig_poly(golden_rotation, dict(enumerate(coeffs)))).turns)


def test_one_kernel_call_per_lambda_set(cycle3, monkeypatch):
    # the zero set holds the cube roots of 1j and misses those of -1: each
    # cube root of -1 is looked up in the same lambda set, which finds its
    # roots once; containment in Pxl(0, -1) asks membership and finds none
    calls = []
    kernel = transform.unit_circle_roots
    monkeypatch.setattr(transform, "unit_circle_roots",
                        lambda coeffs, tol: calls.append(tuple(coeffs)) or kernel(coeffs, tol))
    coeffs = poly_from_roots([1j])
    a = element(cycle3, {3 * l: const_func(cycle3, c) for l, c in enumerate(coeffs)})
    I = generated_ideal(cycle3, [a])
    assert not ideal_leq(I, canonical_px_lambda(cycle3, pt(0), -1 + 0j))
    assert calls == []
    Z = zeros_of_ideal(I)
    assert not any(torus_contains(Z, pt(0), mu) for mu in pth_roots(-1, 3))
    assert all(torus_contains(Z, pt(0), mu) for mu in pth_roots(1j, 3))
    assert len(calls) == len(set(calls)) == 1


# ---------------------------------------------------------------------------
# The Aberth engine, with numpy's companion-matrix roots as the reference

@pytest.mark.parametrize("coeffs,want", [
    ([-2, 1], [2]),
    ([3j, 1j], [-3]),
    ([0, 0, -1, 1], [0, 0, 1]),
    ([0, 1], [0]),
    ([-1, 0, 0, 1], [1, cmath.exp(2j * math.pi / 3), cmath.exp(-2j * math.pi / 3)]),
], ids=["degree 1", "degree 1 complex", "roots at zero", "only zero", "1 - z^3"])
def test_engine_small_cases(coeffs, want):
    roots, sweeps = aberth_roots([complex(c) for c in coeffs])
    assert sweeps < ABERTH_SWEEPS and len(roots) == len(want)
    assert all(min(abs(r - w) for r in roots) < 1e-15 for w in want)
    assert all(r.imag == 0.0 for r in roots if abs(r.imag) < 1e-3)  # real roots come out exact


def jittered_turns(width: float, jitter) -> list[float]:
    """One turn in each of len(jitter) equal cells of [0, width), kept 0.1
    cell from the cell's edges, so no two come closer than 0.2 cell."""
    return [width * (j + 0.1 + 0.8 * u) / len(jitter) for j, u in enumerate(jitter)]


@st.composite
def planted_polys(draw):
    """(coefficients, real?) of a real or complex polynomial with 1-40
    simple roots on the unit circle, possibly one more 1e-3 along the
    circle from one of them (and its conjugate), up to three off the
    circle, and a root at zero of multiplicity 0-2."""
    real = draw(st.booleans())
    unif = st.floats(0, 1)
    if real:
        count = draw(st.integers(0, 19))  # conjugate pairs
        top = [cmath.exp(2j * math.pi * t)
               for t in jittered_turns(0.5, draw(st.lists(unif, min_size=count, max_size=count)))]
        signs = draw(st.sets(st.sampled_from([1.0, -1.0]), min_size=not count))
        units = top + [u.conjugate() for u in top] + [complex(x) for x in sorted(signs)]
    else:
        count = draw(st.integers(1, 40))
        spin = cmath.exp(2j * math.pi * draw(unif))
        units = [spin * cmath.exp(2j * math.pi * t)
                 for t in jittered_turns(1.0, draw(st.lists(unif, min_size=count, max_size=count)))]
    if draw(st.booleans()) and (units[0].imag > 0 or not real):
        near = units[0] * cmath.exp(1e-3j)
        units += [near, near.conjugate()] if real else [near]
    off = []
    for r in draw(st.lists(st.sampled_from([0.3, 0.6, 1.5, 2.5]), unique=True, max_size=3)):
        if real and draw(st.booleans()):
            off.append(complex(r if draw(st.booleans()) else -r))
            continue
        w = r * cmath.exp(2j * math.pi * (0.05 + 0.4 * draw(unif)))
        off += [w, w.conjugate()] if real else [w]
    zeros = draw(st.integers(0, 2))
    coeffs = poly_from_roots(units + off + [0j] * zeros)
    if real:
        coeffs = [complex(c.real) for c in coeffs]
    else:
        coeffs = [c * cmath.exp(0.2j * math.pi) for c in coeffs]
    return coeffs, real


def root_condition(p, w) -> float:
    """sum |c_k| |w|^k / |p'(w)|: how far a small relative change of p's
    coefficients can move its simple root w, per unit of that change."""
    v = d = 0j
    s = 0.0
    for c in reversed(p):
        d = d * w + v
        v = v * w + c
        s = s * abs(w) + abs(c)
    return s / abs(d) if d else math.inf


def numpy_engine(p):
    return np.roots(p[::-1]).tolist(), 0


@settings(max_examples=50, deadline=None)
@given(planted_polys())
def test_engine_matches_companion_roots(case):
    coeffs, real = case
    calls = []

    def engine(p):
        roots, sweeps = aberth_roots(p)
        calls.append((p, roots, sweeps))
        return roots, sweeps

    with mock.patch.object(scalars, "aberth_roots", engine):
        got = unit_circle_roots(coeffs, TOL)
    with mock.patch.object(scalars, "aberth_roots", numpy_engine):
        want = unit_circle_roots(coeffs, TOL)
    [(p, roots, sweeps)] = calls
    assert sweeps < ABERTH_SWEEPS  # every root met the backward-error stop

    # Both engines give exact roots of polynomials within about n ulp of the
    # squarefree part p, so they agree within 1e-9 or, on an ill-conditioned
    # root, within what its conditioning allows.
    slack = 16 * len(p) * 2.0 ** -52

    def near(r, others):
        return min(abs(r - w) for w in others) <= 1e-9 + slack * root_condition(p, r)

    assert len(got) == len(want) and all(near(r, want) for r in got)
    ref = np.roots(np.array(p[::-1]).real if real else p[::-1]).tolist()
    assert len(roots) == len(ref)
    assert all(near(r, ref) for r in roots) and all(near(w, roots) for w in ref)
    if real:  # real roots exactly real, as numpy's real eigensolver gives them
        assert sum(r.imag == 0.0 for r in roots) == sum(w.imag == 0.0 for w in ref)
        assert all(r in (1, -1) for r in got if abs(r.imag) < 1e-6)


def test_simple_roots_survive_the_squarefree_step():
    want = [cmath.exp(2j * math.pi * t) for t in (0.03, 0.3, 0.67, 0.94)]
    roots = unit_circle_roots(poly_from_roots(want), TOL)
    assert len(roots) == 4 and all(min(abs(r - w) for r in roots) < 1e-9 for w in want)
