import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from crossedprod import scalars as sc
from crossedprod.algebra import (
    alg_add, alg_adj, alg_mul, delta_power, dual_action, element, elem_close, fourier_eval,
    from_func, unit, zero_element,
)
from crossedprod.dynsys import (
    INF, FiniteSet, FiniteSystem, ShiftSet, apply_sigma,
    orbit_points, pt, whole_space,
)
from crossedprod.errors import SystemMismatchError, UnsupportedQueryError
from crossedprod.funcspace import (
    f_eval, finite_func, one_func, shift_func,
)
from crossedprod.parsing import parse_ideal
from crossedprod.reps_ideals import (
    canonical_px, canonical_px_lambda, canonical_qx, escape_element,
    ideal_behaviour, ideal_inclusion, ideal_member, intersection_ideal,
    kernel_ideal, rep_aperiodic_window, rep_is_zero,
    rep_periodic, restrict_system, separating_check,
)
from crossedprod.sampling import (
    canonical_handles, random_element, random_func, random_member, random_unimodular,
)
from crossedprod.transform import (
    FullCircle, TorusEntry, TorusSubset, residue_sums, tilde_member,
)


def to_numpy(M):
    return np.array([[complex(v) for v in row] for row in M.entries])


def test_rep_delta_power_is_lambda_identity(cycle3):
    lam = cmath.exp(2j * math.pi * 0.3)
    d = delta_power(cycle3, 1)
    M = rep_periodic(cycle3, pt(0), lam, d)
    got = np.linalg.matrix_power(to_numpy(M), 3)
    assert np.allclose(got, lam * np.eye(3))


def test_rep_unit_is_identity(cycle3):
    M = rep_periodic(cycle3, pt(0), 1j, unit(cycle3))
    assert np.allclose(to_numpy(M), np.eye(3))


def test_rep_multiplicative_matrix_oracle(cycle3, rng):
    lam = cmath.exp(2j * math.pi * 0.11)
    for _ in range(30):
        a = random_element(cycle3, rng, 3)
        b = random_element(cycle3, rng, 3)
        lhs = to_numpy(rep_periodic(cycle3, pt(0), lam, alg_mul(a, b)))
        rhs = to_numpy(rep_periodic(cycle3, pt(0), lam, a)) @ \
            to_numpy(rep_periodic(cycle3, pt(0), lam, b))
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_rep_star_preserving(cycle3, rng):
    lam = cmath.exp(2j * math.pi * 0.77)
    for _ in range(20):
        a = random_element(cycle3, rng, 3)
        lhs = to_numpy(rep_periodic(cycle3, pt(0), lam, alg_adj(a)))
        rhs = to_numpy(rep_periodic(cycle3, pt(0), lam, a)).conj().T
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_rep_diag_entries(cycle3):
    f = finite_func(cycle3, (10 + 0j, 20 + 0j, 30 + 0j))
    M = to_numpy(rep_periodic(cycle3, pt(0), 1 + 0j, from_func(f)))
    # diagonal lists the values along the orbit of the base point
    assert np.allclose(np.diag(M), [10, 20, 30])


def test_rep_exact_mode(cycle3):
    lam = sc.rational_circle_point(Fraction(1, 2))
    a = escape_element(one_func(cycle3, exact=True), lam, 3)
    M = rep_periodic(cycle3, pt(0), lam, a)
    assert rep_is_zero(M, 0.0)


def dense_rep_periodic(system, x, p, lam, a, exact):
    """sum_n diag(a_n along the orbit) D^n with D^n a product of dense
    matrices: D has ones below the diagonal and lam in the top-right corner,
    and negative powers use the conjugate transpose."""
    one, zero = sc.one_like(exact), sc.zero_like(exact)
    D = [[zero] * p for _ in range(p)]
    for k in range(p - 1):
        D[k + 1][k] = one
    D[0][p - 1] = lam
    Dstar = [[sc.conj(D[j][i]) for j in range(p)] for i in range(p)]

    def matmul(A, B):
        out = []
        for i in range(p):
            row = []
            for j in range(p):
                acc = A[i][0] * B[0][j]
                for k in range(1, p):
                    acc = acc + A[i][k] * B[k][j]
                row.append(acc)
            out.append(row)
        return out

    total = [[zero] * p for _ in range(p)]
    for n, f in a.coeffs.items():
        P = [[one if i == j else zero for j in range(p)] for i in range(p)]
        for _ in range(abs(n)):
            P = matmul(P, D if n >= 0 else Dstar)
        for i in range(p):
            v = f_eval(f, apply_sigma(system, x, i))
            for j in range(p):
                total[i][j] = total[i][j] + v * P[i][j]
    return total


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_rep_periodic_matches_dense_powers(perm1235, p, exact, rng):
    # base points of period 1, 2, 3 and 5 in perm1235; an 8-cycle for 8
    if p == 8:
        system, x = FiniteSystem(8, (1, 2, 3, 4, 5, 6, 7, 0)), pt(0)
    else:
        system, x = perm1235, pt({1: 0, 2: 1, 3: 3, 5: 6}[p])
    lam = sc.rational_circle_point(Fraction(2, 3)) if exact \
        else cmath.exp(2j * math.pi * 0.137)
    a = element(system, {n: random_func(system, rng, exact)
                         for n in range(-2 * p - 1, 2 * p + 2)})
    M = rep_periodic(system, x, lam, a)
    want = dense_rep_periodic(system, x, p, lam, a, exact)
    assert M.period == p and M.dim == p
    for i in range(p):
        for j in range(p):
            got = M.entries[i][j]
            assert sc.is_exact(got) == exact
            # exactly equal in float mode too: the same products, summed in order
            assert got == want[i][j], (i, j)


def test_rep_aperiodic_window_entries(shift, rng):
    # direct indexing oracle from the basis action: the step generator moves
    # e_k to e_{k+1} and functions act diagonally, so the coefficient of
    # index n lands at (k+n, k) with value a_n(sigma^{k+n} x)
    x = pt(0)
    a = random_element(shift, rng, 2)
    W = 5
    M = rep_aperiodic_window(shift, x, W, a)
    assert M.dim == 2 * W + 1
    for n, f in a.coeffs.items():
        for k in range(-W, W + 1):
            if -W <= k + n <= W:
                want = complex(f_eval(f, apply_sigma(shift, x, k + n)))
                assert abs(complex(M.entries[k + n + W][k + W]) - want) < 1e-12
    # everything else vanishes
    filled = {(k + n + W, k + W) for n in a.coeffs for k in range(-W, W + 1)
              if -W <= k + n <= W}
    for i in range(M.dim):
        for j in range(M.dim):
            if (i, j) not in filled:
                assert complex(M.entries[i][j]) == 0j


def test_rep_aperiodic_shift_matrix(shift):
    M = rep_aperiodic_window(shift, pt(0), 3, delta_power(shift, 1))
    arr = to_numpy(M)
    assert np.allclose(arr, np.eye(7, k=-1))


def test_rep_aperiodic_central_band_product(shift, rng):
    W = 6
    for _ in range(10):
        a = random_element(shift, rng, 2)
        b = random_element(shift, rng, 2)
        MA = to_numpy(rep_aperiodic_window(shift, pt(0), W, a))
        MB = to_numpy(rep_aperiodic_window(shift, pt(0), W, b))
        MAB = to_numpy(rep_aperiodic_window(shift, pt(0), W, alg_mul(a, b)))
        prod = MA @ MB
        width = a.support_radius() + b.support_radius()
        # faithful columns: basis indices k with |k| <= W - width
        for k in range(-(W - width), W - width + 1):
            c = k + W
            assert np.allclose(prod[:, c], MAB[:, c], atol=1e-9)


def test_rep_window_too_small(shift, rng):
    a = random_element(shift, rng, 3)
    if a.support_radius() >= 1:
        with pytest.raises(UnsupportedQueryError):
            rep_aperiodic_window(shift, pt(0), a.support_radius() - 1, a)


def test_escape_element_membership(cycle3):
    lam = cmath.exp(2j * math.pi / 7)
    I = canonical_px_lambda(cycle3, pt(0), lam)
    a = escape_element(one_func(cycle3), lam, 3)
    assert ideal_member(I, a)
    assert not ideal_member(canonical_qx(cycle3, pt(0)), a)


def test_membership_matches_matrix_kernel(cycle3, perm1235, rng):
    lams = [cmath.exp(2j * math.pi * k / 8) for k in range(8)]
    x = pt(0)
    for lam in lams:
        I = canonical_px_lambda(cycle3, x, lam)
        for _ in range(15):
            if rng.random() < 0.5:
                a = random_member(I, rng, 2)
            else:
                a = random_element(cycle3, rng, 2)
            member = ideal_member(I, a)
            assert member == rep_is_zero(rep_periodic(cycle3, x, lam, a), 1e-8)
    # every period (1, 2, 3 and 5 on the 11-point permutation, 8 on the
    # 8-cycle), exact and float; membership stops at the first nonzero
    # residue sum, so each non-member below is nonzero only in the last
    # class walked: the top residue p - 1 at the last orbit point
    cycle8 = FiniteSystem(8, (1, 2, 3, 4, 5, 6, 7, 0))
    for system, x in [(perm1235, pt(k)) for k in (0, 1, 3, 6)] + [(cycle8, pt(0))]:
        p = system.period(x)
        last = orbit_points(system, x)[-1].coord
        for exact in (True, False):
            for _ in range(6):
                lam = random_unimodular(rng, exact)
                I = canonical_px_lambda(system, x, lam)
                tol = 0.0 if exact else 1e-8
                for a in (random_member(I, rng, 2, exact), random_element(system, rng, 2, exact)):
                    assert ideal_member(I, a) == rep_is_zero(rep_periodic(system, x, lam, a), tol)
                member = random_member(I, rng, 2, exact)
                assert ideal_member(I, member)
                assert rep_is_zero(rep_periodic(system, x, lam, member), tol)
                one = sc.one_like(exact)
                bump = [one if k == last else sc.zero_like(exact) for k in range(system.size)]
                a = alg_add(member, element(system, {2 * p - 1: finite_func(system, bump)}))
                walked = [sum((sc.unit_pow(lam, l) * v for l, v in sums.items()),
                              sc.zero_like(exact)) for sums in residue_sums(a, x)]
                assert [sc.is_zero(v, tol) for v in walked] == [True] * (len(walked) - 1) + [False]
                assert not ideal_member(I, a)
                assert not rep_is_zero(rep_periodic(system, x, lam, a), 1e-8)


def test_qx_members_kill_every_lambda(cycle3, rng):
    x = pt(0)
    Qx = canonical_qx(cycle3, x)
    for _ in range(20):
        a = random_member(Qx, rng, 3)
        for k in range(7):
            lam = cmath.exp(2j * math.pi * k / 7)
            assert rep_is_zero(rep_periodic(cycle3, x, lam, a), 1e-9)
            assert ideal_member(canonical_px_lambda(cycle3, x, lam), a)


def test_qx_is_intersection_over_root_sample(cycle3, rng):
    x = pt(0)
    Qx = canonical_qx(cycle3, x)
    for _ in range(40):
        a = random_member(Qx, rng, 3) if rng.random() < 0.4 \
            else random_element(cycle3, rng, 3)
        N = a.support_radius()
        order = 2 * N + 1
        in_all = all(
            ideal_member(canonical_px_lambda(cycle3, x, cmath.exp(2j * math.pi * k / order)), a)
            for k in range(order)
        )
        assert in_all == ideal_member(Qx, a)


def test_behaviour_classification(cycle3, shift_union_cycle3):
    assert ideal_behaviour(canonical_qx(cycle3, pt(0))).kind == "well"
    rep = ideal_behaviour(canonical_px_lambda(cycle3, pt(0), 1j))
    assert rep.kind == "bad"
    assert ideal_member(canonical_px_lambda(cycle3, pt(0), 1j), rep.escape_element)
    U = shift_union_cycle3
    I = intersection_ideal(U, [
        canonical_px(U, pt(0, 0)),
        canonical_px_lambda(U, pt(0, 1), 1 + 0j),
    ])
    plain = ideal_behaviour(I)
    assert plain.kind == "plain"
    # the witness escapes: its zero coefficient is not a member
    assert ideal_member(I, plain.escape_element)
    assert not ideal_member(I.parts[1], from_func(plain.escape_function))


def test_behaviour_collapsing_intersection(shift_union_cycle3):
    # base point of the torus kernel inside the orbit closure: the
    # intersection collapses to the well behaved part
    U = shift_union_cycle3
    I = intersection_ideal(U, [
        canonical_px(U, pt(0, 0)),
        canonical_px_lambda(U, pt(INF, 0), 1 + 0j),
    ])
    assert ideal_behaviour(I).kind == "well"


def test_inclusion_table_periodic(cycle3, perm23):
    x = pt(0)
    lam1, lam2 = 1 + 0j, 1j
    assert ideal_inclusion(canonical_px_lambda(cycle3, x, lam1),
                           canonical_px_lambda(cycle3, pt(1), lam1))
    assert not ideal_inclusion(canonical_px_lambda(cycle3, x, lam1),
                               canonical_px_lambda(cycle3, x, lam2))
    assert ideal_inclusion(canonical_qx(cycle3, x),
                           canonical_px_lambda(cycle3, x, lam2))
    assert not ideal_inclusion(canonical_px_lambda(cycle3, x, lam1),
                               canonical_qx(cycle3, x))
    # different orbits in perm23
    assert not ideal_inclusion(canonical_qx(perm23, pt(0)),
                               canonical_qx(perm23, pt(2)))


def test_inclusion_table_mixed(shift_union_cycle3):
    U = shift_union_cycle3
    x1 = pt(0, 0)       # aperiodic, closure = shift component
    xinf = pt(INF, 0)
    x2 = pt(0, 1)       # periodic in the finite component
    Px1 = canonical_px(U, x1)
    # closure of x1 contains the orbit of infinity but not the finite cycle
    assert ideal_inclusion(Px1, canonical_px_lambda(U, xinf, 1j))
    assert ideal_inclusion(Px1, canonical_qx(U, xinf))
    assert not ideal_inclusion(Px1, canonical_px_lambda(U, x2, 1j))
    assert not ideal_inclusion(canonical_px_lambda(U, xinf, 1j), Px1)
    assert not ideal_inclusion(canonical_qx(U, xinf), Px1)


def test_inclusion_matches_sampled_membership(shift_union_cycle3, rng):
    U = shift_union_cycle3
    handles = canonical_handles(U, lam_values=(1 + 0j, 1j))
    for I in handles:
        for J in handles:
            predicted = ideal_inclusion(I, J)
            escaped = False
            for _ in range(30):
                m = random_member(I, rng, 2)
                assert ideal_member(I, m)
                if not ideal_member(J, m):
                    escaped = True
                    break
            if predicted:
                assert not escaped, (I, J)


def test_separating_check(cycle3, shift, rng):
    assert separating_check(cycle3, zero_element(cycle3)) is None
    f = finite_func(cycle3, (2 + 0j, 0j, 0j))
    w = separating_check(cycle3, element(cycle3, {3: f}))
    assert w is not None and w.point == pt(0) and w.coeff_index == 3
    # brute-force agreement: the witness value really is a nonzero sample
    assert abs(complex(w.value)) > 1e-9
    a = element(shift, {1: shift_func(shift, 0j, {4: 3 + 0j})})
    w2 = separating_check(shift, a)
    assert w2.rep_kind == "aperiodic" and w2.point == pt(4)
    with_inf = element(shift, {0: shift_func(shift, 1 + 0j)})
    w3 = separating_check(shift, with_inf)
    assert w3 is not None
    if w3.rep_kind == "periodic":
        assert not rep_is_zero(rep_periodic(shift, w3.point, w3.lam, with_inf), 1e-9)


def test_quotient_restriction_identity(cycle3):
    R = restrict_system(cycle3, whole_space(cycle3))
    a = unit(cycle3)
    assert R.restrict_element(a).coeffs.keys() == a.coeffs.keys()


def test_quotient_restriction_multiplicative(perm23, rng):
    S = FiniteSet(frozenset({2, 3, 4}))  # the 3-cycle orbit
    R = restrict_system(perm23, S)
    assert R.subsystem.size == 3
    for _ in range(20):
        a = random_element(perm23, rng, 2)
        b = random_element(perm23, rng, 2)
        lhs = R.restrict_element(alg_mul(a, b))
        rhs = alg_mul(R.restrict_element(a), R.restrict_element(b))
        assert elem_close(lhs, rhs, 1e-9)
        lhs2 = R.restrict_element(alg_adj(a))
        assert elem_close(lhs2, alg_adj(R.restrict_element(a)), 1e-9)


def test_quotient_kernel_is_kernel_ideal(perm23, rng):
    from crossedprod.algebra import elem_is_zero
    S = FiniteSet(frozenset({0, 1}))
    R = restrict_system(perm23, S)
    K = kernel_ideal(perm23, S)
    for _ in range(30):
        a = random_member(K, rng, 2) if rng.random() < 0.5 \
            else random_element(perm23, rng, 2)
        assert elem_is_zero(R.restrict_element(a), 1e-12) == ideal_member(K, a)


def test_quotient_shift_fixed_point(shift):
    R = restrict_system(shift, ShiftSet(frozenset(), True))
    assert R.subsystem.size == 1
    a = element(shift, {0: shift_func(shift, 2 + 0j, {0: 5 + 0j})})
    got = R.restrict_element(a)
    assert complex(got.coeff(0).data[0]) == 2 + 0j
    assert R.restrict_point(pt(INF)) == pt(0)


def test_quotient_of_a_union_drops_its_empty_components(shift_union_cycle3, cycle3, rng):
    from crossedprod.dynsys import UnionSystem
    from crossedprod.parsing import parse_point, parse_set
    U = shift_union_cycle3
    R = restrict_system(U, parse_set("u[empty; {0,1,2}]", U))
    assert R.subsystem == UnionSystem((cycle3,))
    assert R.restrict_point(parse_point("c1:2", U)) == parse_point("c0:2", R.subsystem)
    with pytest.raises(SystemMismatchError):
        R.restrict_point(parse_point("c0:2", U))
    for _ in range(20):
        a = random_element(U, rng, 2)
        b = random_element(U, rng, 2)
        lhs = R.restrict_element(alg_mul(a, b))
        assert elem_close(lhs, alg_mul(R.restrict_element(a), R.restrict_element(b)), 1e-9)
    whole = restrict_system(U, parse_set("u[all; {0,1,2}]", U))
    assert whole.subsystem == U
    assert whole.restrict_point(parse_point("c0:5", U)) == parse_point("c0:5", U)
    a = random_element(U, rng, 2)
    assert whole.restrict_element(a) == a


def test_separating_check_on_a_union(shift_union_cycle3):
    from crossedprod.parsing import parse_elem
    U = shift_union_cycle3
    w = separating_check(U, parse_elem("u[sh{inf:0,4:3}; 0]*d + u[0; f{1:2}]*d^3", U))
    assert (w.point, w.coeff_index, w.value, w.rep_kind) == (pt(4, 0), 1, 3 + 0j, "aperiodic")
    a = parse_elem("u[0; f{1:2}]*d^3", U)
    w = separating_check(U, a)
    assert (w.point, w.coeff_index, w.value, w.rep_kind) == (pt(1, 1), 3, 2 + 0j, "periodic")
    assert not rep_is_zero(rep_periodic(U, w.point, w.lam, a), 1e-9)


def test_separating_check_on_the_rotation_searches_a_grid(golden_rotation):
    from crossedprod.parsing import parse_elem
    assert separating_check(golden_rotation, zero_element(golden_rotation)) is None
    # 1 - z vanishes at turn 0 and peaks at turn 1/2, a point of the 24-point grid
    w = separating_check(golden_rotation, parse_elem("tp{0:1,1:-1}*d^2", golden_rotation))
    assert (w.point, w.coeff_index, w.rep_kind) == (pt(Fraction(1, 2)), 2, "aperiodic")
    assert abs(w.value - 2) < 1e-12
    w = separating_check(golden_rotation, parse_elem("tp{0:1,1:1}", golden_rotation))
    assert (w.point, w.coeff_index, w.rep_kind) == (pt(Fraction(0)), 0, "aperiodic")


def test_quotient_unrepresentable(golden_rotation, shift):
    from crossedprod.dynsys import CircleSet
    with pytest.raises(UnsupportedQueryError):
        restrict_system(golden_rotation, CircleSet(False, (0.25,)))
    with pytest.raises(UnsupportedQueryError):
        restrict_system(shift, ShiftSet(frozenset({1}), True))


def test_canonical_constructor_validation(cycle3, shift):
    with pytest.raises(UnsupportedQueryError):
        canonical_px(cycle3, pt(0))
    with pytest.raises(UnsupportedQueryError):
        canonical_qx(shift, pt(3))
    with pytest.raises(UnsupportedQueryError):
        canonical_px_lambda(shift, pt(3), 1j)


EXACT_CIRCLE = [sc.qc(1), sc.qc(0, 1), sc.qc(Fraction(3, 5), Fraction(4, 5))]


@pytest.mark.parametrize("lam", EXACT_CIRCLE + [0.6 + 0.8j, cmath.exp(0.7j)],
                         ids=["1", "i", "3/5+4/5i", "0.6+0.8i", "exp(0.7i)"])
def test_torus_parameters_on_the_circle_are_accepted(cycle3, lam):
    exact = sc.is_exact(lam)
    d, dinv = delta_power(cycle3, 1, exact), delta_power(cycle3, -1, exact)
    prod = to_numpy(rep_periodic(cycle3, pt(0), lam, d)) @ \
        to_numpy(rep_periodic(cycle3, pt(0), lam, dinv))
    assert np.allclose(prod, np.eye(3), atol=1e-12)
    assert ideal_member(canonical_px_lambda(cycle3, pt(0), lam), escape_element(
        one_func(cycle3, exact), lam, 3))
    assert abs(complex(fourier_eval(dinv, pt(0), lam)) - 1 / complex(lam)) < 1e-12
    assert elem_close(alg_mul(dual_action(d, lam), dual_action(dinv, lam)), unit(cycle3, exact))


@pytest.mark.parametrize("lam", [sc.qc(2), sc.qc(0), sc.qc(Fraction(3, 5), Fraction(4, 7)),
                                 2 + 0j, 0j, 1.00001 + 0j],
                         ids=["2", "0", "3/5+4/7i", "2.0", "0.0", "1.00001"])
def test_a_torus_parameter_off_the_circle_is_refused(cycle3, lam):
    # off the circle the conjugate is no inverse, so every answer would be wrong
    d = delta_power(cycle3, -1, sc.is_exact(lam))
    for call in (lambda: canonical_px_lambda(cycle3, pt(0), lam),
                 lambda: rep_periodic(cycle3, pt(0), lam, d),
                 lambda: fourier_eval(d, pt(0), lam),
                 lambda: dual_action(d, lam)):
        with pytest.raises(ValueError, match="off the unit circle"):
            call()


def test_exact_canonical_handles_keep_an_exact_torus_parameter(cycle3):
    # an exact parameter stays as given; only a float one is made exact
    lam = sc.qc(Fraction(3, 5), Fraction(4, 5))
    handles = canonical_handles(cycle3, lam_values=(lam,), exact=True)
    assert [repr(h) for h in handles] == ["Qx(0)", "Pxl(0, 3/5+4/5i)"]
    assert handles[1].lam == lam
    lams = [h.lam for h in canonical_handles(cycle3, exact=True)[1:]]
    assert lams == [sc.qc(1), sc.qc(-1), sc.qc(0, 1)] and all(map(sc.is_exact, lams))


def test_an_element_on_another_system_is_refused(cycle3, shift, shift_union_cycle3):
    # the layers evaluate through the system they are handed, so the entry
    # points check once that the element lives there
    on_union = unit(shift_union_cycle3)
    twin = FiniteSystem(3, (2, 0, 1))  # same size, other permutation
    calls = [
        lambda: rep_periodic(cycle3, pt(0), 1, on_union),
        lambda: rep_periodic(cycle3, pt(0), 1, unit(twin)),
        lambda: rep_aperiodic_window(shift, pt(0), 2, unit(cycle3)),
        lambda: separating_check(cycle3, on_union),
        lambda: tilde_member(TorusSubset(cycle3, (TorusEntry(pt(0), FullCircle()),)), on_union),
    ]
    for call in calls:
        with pytest.raises(SystemMismatchError):
            call()


def test_an_exact_draw_from_a_float_torus_parameter_is_a_float_member(cycle3, rng):
    """A float lam makes the escape element float, so every factor of the
    draw is float and the draw is a member."""
    J = canonical_px_lambda(cycle3, pt(0), 1j)
    for _ in range(10):
        a = J.random_member(rng, 2, exact=True)
        assert not a.exact
        assert ideal_member(J, a)
    K = canonical_px_lambda(cycle3, pt(0), sc.qc(0, 1))
    assert K.random_member(rng, 2, exact=True).exact


def test_a_meet_draws_every_part_in_one_mode(perm1235, rng):
    """A float Pxl part makes an exact draw from the meet float, and the
    draw lies in each part; with an exact parameter the draw stays exact."""
    I = parse_ideal("meet(Pxl(0, 1.0), Qx(1))", perm1235, True)
    draws = [I.random_member(random.Random(1), 2, True)]
    draws += [I.random_member(rng, 2, True) for _ in range(10)]
    for a in draws:
        assert not a.exact
        assert all(ideal_member(P, a) for P in I.parts)
    J = parse_ideal("meet(Pxl(0, 1), Qx(1))", perm1235, True)
    draws = [J.random_member(rng, 2, True) for _ in range(5)]
    assert all(a.exact for a in draws if a.coeffs)
    assert all(ideal_member(P, a) for a in draws for P in J.parts)
