
import pytest

from crossedprod.algebra import (
    alg_mul, alg_sub, delta_power, element, from_func, unit,
)
from crossedprod.dynsys import (
    INF, FiniteSet, ShiftSet,
    is_invariant_closed,
    pt, set_equal,
    whole_space, empty_set,
)
from crossedprod.errors import UnsupportedQueryError
from crossedprod.funcspace import (
    f_zero_set, finite_func, one_func, point_indicator, shift_func,
)
from crossedprod.hullkernel import (
    decompose_as_intersection, hull, hull_kernel_compose, kernel_hull_compose,
    kernel_project,
    minimality_dichotomy,
)
from crossedprod.reps_ideals import (
    canonical_px, canonical_px_lambda, canonical_qx, escape_element,
    generated_ideal, ideal_member, intersection_ideal, kernel_ideal,
)
from crossedprod.sampling import random_element, random_member


def test_hull_closed_forms(cycle3, shift):
    assert set_equal(cycle3, hull(canonical_qx(cycle3, pt(0))).subset,
                     FiniteSet(frozenset({0, 1, 2})))
    assert set_equal(shift, hull(canonical_px(shift, pt(0))).subset,
                     whole_space(shift))
    h = hull(canonical_px_lambda(cycle3, pt(0), 1j)).subset
    assert set_equal(cycle3, h, empty_set(cycle3))


def test_hull_of_kernel_recovers_set(perm23):
    S = FiniteSet(frozenset({0, 1}))
    assert set_equal(perm23, hull(kernel_ideal(perm23, S)).subset, S)


def hull_oracle_generated(system, gens, powers=range(-2, 3)):
    """Product-enumeration oracle: intersect the coefficient zero sets of
    u * g * v with u, v running over indicator-times-power elements."""
    exact = any(g.exact for g in gens)
    basis = [point_indicator(system, pt(i), exact) for i in range(system.size)]
    basis.append(one_func(system, exact))
    acc = whole_space(system)
    for g in gens:
        for fu in basis:
            for fv in basis:
                for i in powers:
                    for j in powers:
                        u = alg_mul(from_func(fu), delta_power(system, i, exact))
                        v = alg_mul(from_func(fv), delta_power(system, j, exact))
                        prod = alg_mul(alg_mul(u, g), v)
                        for f in prod.coeffs.values():
                            acc = system.intersect(acc, f_zero_set(f))
    return acc


@pytest.mark.parametrize("values,expected", [
    ((5 + 0j, 0j, 0j), {2}),
    ((0j, 5 + 0j, 0j), {2}),
    ((0j, 0j, 5 + 0j), {0, 1}),
])
def test_hull_generated_single_function(swap_fix, values, expected):
    g = from_func(finite_func(swap_fix, values))
    I = generated_ideal(swap_fix, [g])
    got = hull(I).subset
    assert got == FiniteSet(frozenset(expected))
    oracle = hull_oracle_generated(swap_fix, [g])
    assert set_equal(swap_fix, got, oracle)


def test_hull_generated_oracle_random(swap_fix, rng):
    for _ in range(10):
        gens = [random_element(swap_fix, rng, 1, exact=True)]
        I = generated_ideal(swap_fix, gens)
        got = hull(I).subset
        oracle = hull_oracle_generated(swap_fix, gens)
        assert set_equal(swap_fix, got, oracle)
        assert is_invariant_closed(swap_fix, got)


def test_kernel_extremes(cycle3, rng):
    everything = kernel_ideal(cycle3, empty_set(cycle3))
    nothing = kernel_ideal(cycle3, whole_space(cycle3))
    for _ in range(10):
        a = random_element(cycle3, rng, 2)
        assert ideal_member(everything, a)
        assert not ideal_member(nothing, a) or not a.coeffs
    assert ideal_member(nothing, element(cycle3, {}))


def test_kernel_of_union_is_intersection(perm23, rng):
    S1 = FiniteSet(frozenset({0, 1}))
    S2 = FiniteSet(frozenset({2, 3, 4}))
    K12 = kernel_ideal(perm23, perm23.union(S1, S2))
    K1 = kernel_ideal(perm23, S1)
    K2 = kernel_ideal(perm23, S2)
    for _ in range(40):
        a = random_member(rng.choice((K1, K2, K12)), rng, 2) \
            if rng.random() < 0.6 else random_element(perm23, rng, 2)
        assert ideal_member(K12, a) == (ideal_member(K1, a) and ideal_member(K2, a))


def test_kernel_project_idempotent_and_supported(perm23, shift, rng):
    S = FiniteSet(frozenset({0, 1}))
    for _ in range(15):
        a = random_element(perm23, rng, 2)
        p = kernel_project(perm23, S, a)
        assert ideal_member(kernel_ideal(perm23, S), p)
        again = kernel_project(perm23, S, p)
        assert again.coeffs.keys() == p.coeffs.keys()
        diff = alg_sub(a, p)
        # the difference lives on S: it vanishes on the complement
        comp = FiniteSet(frozenset(range(perm23.size)) - S.points)
        assert ideal_member(kernel_ideal(perm23, comp), diff)
    # shift: clopen cases work
    a = element(shift, {0: shift_func(shift, 2 + 0j, {0: 5 + 0j, 7: 1j})})
    p1 = kernel_project(shift, ShiftSet(frozenset({0, 1})), a)
    assert complex(p1.coeff(0).data[1][0]) == 0j
    assert complex(p1.coeff(0).data[0]) == 2 + 0j
    p2 = kernel_project(shift, ShiftSet(frozenset({7}), True, True), a)
    assert complex(p2.coeff(0).data[0]) == 0j
    assert complex(p2.coeff(0).data[1][7]) == 1j
    with pytest.raises(UnsupportedQueryError):
        kernel_project(shift, ShiftSet(frozenset({3}), True), a)


def test_hull_kernel_compose_identity_small(perm23):
    for S in perm23.invariant_closed_sets():
        assert set_equal(perm23, hull_kernel_compose(perm23, S), S)


def test_kernel_hull_grows_and_fixes_well_behaved(cycle3, rng):
    Q = canonical_qx(cycle3, pt(0))
    KH = kernel_hull_compose(Q)
    for _ in range(30):
        a = random_member(Q, rng, 2) if rng.random() < 0.5 \
            else random_element(cycle3, rng, 2)
        if ideal_member(Q, a):
            assert ideal_member(KH, a)
        assert ideal_member(Q, a) == ideal_member(KH, a)
    # badly behaved handle: the composition jumps to everything
    P = canonical_px_lambda(cycle3, pt(0), 1j)
    KHP = kernel_hull_compose(P)
    assert ideal_member(KHP, unit(cycle3))
    assert not ideal_member(P, unit(cycle3))
    for _ in range(20):
        a = random_member(P, rng, 2)
        assert ideal_member(KHP, a)


def test_decompose_examples(perm23, shift):
    parts = decompose_as_intersection(perm23, whole_space(perm23))
    assert {type(p).__name__ for p in parts} == {"QxIdeal"}
    assert len(parts) == 2
    sh_parts = decompose_as_intersection(shift, whole_space(shift))
    assert len(sh_parts) == 1 and type(sh_parts[0]).__name__ == "PxIdeal"
    inf_parts = decompose_as_intersection(shift, ShiftSet(frozenset(), True))
    assert len(inf_parts) == 1 and type(inf_parts[0]).__name__ == "QxIdeal"
    assert inf_parts[0].x == pt(INF)


def test_decompose_membership_equivalence(shift_union_cycle3, rng):
    U = shift_union_cycle3
    for S in U.invariant_closed_sets():
        parts = decompose_as_intersection(U, S)
        K = kernel_ideal(U, S)
        joint = intersection_ideal(U, parts)
        for _ in range(25):
            a = random_member(K, rng, 2) if rng.random() < 0.5 \
                else random_element(U, rng, 2)
            assert ideal_member(K, a) == ideal_member(joint, a)


def test_dual_action_invariance_of_well_behaved(cycle3, rng):
    from crossedprod.algebra import dual_action
    from crossedprod.sampling import random_unimodular
    Q = canonical_qx(cycle3, pt(0))
    P = canonical_px_lambda(cycle3, pt(0), 1 + 0j)
    for _ in range(20):
        a = random_member(Q, rng, 2)
        lam = random_unimodular(rng)
        assert ideal_member(Q, dual_action(a, lam))
    # the torus-parameter kernel is not invariant: explicit witness
    a = escape_element(one_func(cycle3), 1 + 0j, 3)
    assert ideal_member(P, a)
    assert not ideal_member(P, dual_action(a, 1j))


def test_minimality_reports(cycle3, perm23, shift, golden_rotation, rational_rotation):
    assert minimality_dichotomy(cycle3).minimal
    assert minimality_dichotomy(cycle3).invariant_closed_set_count == 2
    r = minimality_dichotomy(perm23)
    assert not r.minimal and r.invariant_closed_set_count == 4
    assert minimality_dichotomy(shift).invariant_closed_set_count == 3
    assert minimality_dichotomy(golden_rotation).minimal
    rr = minimality_dichotomy(rational_rotation)
    assert not rr.minimal and rr.invariant_closed_set_count is None


def test_hull_monotone_reversing(shift_union_cycle3):
    U = shift_union_cycle3
    I1 = canonical_qx(U, pt(0, 1))
    I2 = canonical_px_lambda(U, pt(0, 1), 1 + 0j)
    # Qx sits inside the torus kernel; hulls reverse
    assert U.subset(hull(I2).subset, hull(I1).subset)


def test_hull_of_trivial_ideal_is_whole(cycle3):
    I = generated_ideal(cycle3, [])
    assert set_equal(cycle3, hull(I).subset, whole_space(cycle3))
