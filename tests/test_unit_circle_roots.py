"""The one unit-circle root kernel: repeated roots, near-coincident roots
and the band around the circle, directly and through its two callers
(the rotation zero set and the lambda sets of generated ideals)."""

import cmath
import math
import random

import pytest

from crossedprod.algebra import element
from crossedprod.dynsys import pt, turns_eq
from crossedprod.funcspace import const_func, f_zero_set, trig_poly
from crossedprod import transform
from crossedprod.reps_ideals import canonical_px_lambda, generated_ideal
from crossedprod.scalars import ROOT_MATCH_TOL, unit_circle_roots
from crossedprod.transform import ideal_leq, lamset_roots, zeros_of_ideal

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
    # Pxl(0, -1) misses the cube roots of 1j: each of its three cube roots
    # is looked up in the same lambda set, which finds its roots once
    calls = []
    kernel = transform.unit_circle_roots
    monkeypatch.setattr(transform, "unit_circle_roots",
                        lambda coeffs, tol: calls.append(tuple(coeffs)) or kernel(coeffs, tol))
    coeffs = poly_from_roots([1j])
    a = element(cycle3, {3 * l: const_func(cycle3, c) for l, c in enumerate(coeffs)})
    I = generated_ideal(cycle3, [a])
    assert not ideal_leq(I, canonical_px_lambda(cycle3, pt(0), -1 + 0j))
    assert len(calls) == len(set(calls)) == 1
