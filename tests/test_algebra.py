import cmath
import math

import pytest

from crossedprod.algebra import (
    alg_add, alg_adj, alg_mul, alg_norm, alg_scale, alg_sub,
    delta_power, dual_action, dual_average, elem_close, elem_is_zero,
    expectation, fourier_eval, fourier_func, from_func, unit, zero_element,
)
from crossedprod.dynsys import apply_sigma, pt
from crossedprod.errors import ModeMismatchError, SystemMismatchError
from crossedprod.funcspace import (
    f_compose_sigma, f_conj, f_eval, f_is_zero, f_mul, f_sub, finite_func,
    trig_poly, zero_func,
)
from crossedprod.parsing import parse_elem
from crossedprod.sampling import random_element, random_func, random_unimodular
from crossedprod.scalars import qc


# ---------------------------------------------------------------------------
# Independent oracles: everything is computed through point evaluation and
# sigma iteration only, never through the structural coefficient operations.


def conv_oracle_coeff(a, b, n, x):
    """(ab)_n(x) = sum_k a_k(x) * b_{n-k}(sigma^{-k} x)."""
    total = 0j
    for k, ak in a.coeffs.items():
        bm = b.coeffs.get(n - k)
        if bm is None:
            continue
        total += complex(f_eval(ak, x)) * complex(
            f_eval(bm, apply_sigma(a.system, x, -k)))
    return total


def adj_oracle_coeff(a, n, x):
    """(a*)_n(x) = conj(a_{-n}(sigma^{-n} x))."""
    f = a.coeffs.get(-n)
    if f is None:
        return 0j
    return complex(f_eval(f, apply_sigma(a.system, x, -n))).conjugate()


def fourier_oracle(a, x, lam):
    return sum(complex(lam) ** n * complex(f_eval(f, x)) if n >= 0
               else complex(lam).conjugate() ** (-n) * complex(f_eval(f, x))
               for n, f in a.coeffs.items())


def probe_points(system):
    return system.points()


# ---------------------------------------------------------------------------


def test_delta_conjugation_is_composition(cycle3):
    f = finite_func(cycle3, (1 + 0j, 2 + 0j, 3 + 0j))
    a = alg_mul(alg_mul(delta_power(cycle3, 1), from_func(f)), delta_power(cycle3, -1))
    assert list(a.coeffs) == [0]
    assert a.coeffs[0] == f_compose_sigma(f, -1)


def test_unit_is_identity(cycle3, rng):
    one = unit(cycle3, exact=True)
    for _ in range(20):
        a = random_element(cycle3, rng, 3, exact=True)
        assert alg_mul(one, a) == a or elem_close(alg_mul(one, a), a, 0)
        assert elem_close(alg_mul(a, one), a, 0)


def test_mul_against_pointwise_oracle(cycle3, rng):
    for _ in range(40):
        a = random_element(cycle3, rng, 3)
        b = random_element(cycle3, rng, 3)
        ab = alg_mul(a, b)
        for n in range(-7, 8):
            for x in probe_points(cycle3):
                want = conv_oracle_coeff(a, b, n, x)
                got = complex(f_eval(ab.coeff(n), x))
                assert abs(got - want) < 1e-9


def test_associativity_against_oracle(cycle3, rng):
    # triple product coefficients from the direct double sum
    for _ in range(15):
        a = random_element(cycle3, rng, 2)
        b = random_element(cycle3, rng, 2)
        c = random_element(cycle3, rng, 2)
        abc = alg_mul(alg_mul(a, b), c)
        ab = alg_mul(a, b)
        for n in range(-6, 7):
            for x in probe_points(cycle3):
                want = conv_oracle_coeff(ab, c, n, x)
                assert abs(complex(f_eval(abc.coeff(n), x)) - want) < 1e-9
        assert elem_close(abc, alg_mul(a, alg_mul(b, c)), 1e-9)


def test_support_of_product(cycle3, rng):
    a = random_element(cycle3, rng, 2)
    b = random_element(cycle3, rng, 3)
    ab = alg_mul(a, b)
    lo = min(a.support()) + min(b.support())
    hi = max(a.support()) + max(b.support())
    assert all(lo <= n <= hi for n in ab.support())


def test_adjoint_against_oracle(cycle3, shift_union_cycle3, rng):
    for sys in (cycle3, shift_union_cycle3):
        pts = [pt(i, 1) for i in range(3)] if sys is shift_union_cycle3 \
            else probe_points(sys)
        for _ in range(20):
            a = random_element(sys, rng, 3)
            st = alg_adj(a)
            for n in range(-4, 5):
                for x in pts:
                    assert abs(complex(f_eval(st.coeff(n), x))
                               - adj_oracle_coeff(a, n, x)) < 1e-9


def test_delta_star_is_delta_inverse(cycle3):
    d = delta_power(cycle3, 1, exact=True)
    assert alg_adj(d) == delta_power(cycle3, -1, exact=True)


def test_involution_laws(cycle3, rng):
    for _ in range(30):
        a = random_element(cycle3, rng, 3)
        b = random_element(cycle3, rng, 3)
        assert elem_close(alg_adj(alg_adj(a)), a, 1e-12)
        assert elem_close(alg_adj(alg_mul(a, b)),
                          alg_mul(alg_adj(b), alg_adj(a)), 1e-9)


def test_norm_basics(cycle3, golden_rotation, rng):
    assert alg_norm(unit(cycle3)) == 1.0
    assert alg_norm(delta_power(golden_rotation, 5)) == 1.0
    for sys in (cycle3, golden_rotation):
        for _ in range(25):
            a = random_element(sys, rng, 3)
            b = random_element(sys, rng, 3)
            assert alg_norm(alg_mul(a, b)) <= alg_norm(a) * alg_norm(b) + 1e-9
            assert abs(alg_norm(alg_adj(a)) - alg_norm(a)) < 1e-9


def test_expectation_identities(cycle3, rng):
    d = delta_power(cycle3, 1)
    dinv = delta_power(cycle3, -1)
    for _ in range(25):
        a = random_element(cycle3, rng, 3)
        f = random_func(cycle3, rng)
        g = random_func(cycle3, rng)
        lhs = expectation(alg_mul(alg_mul(from_func(f), a), from_func(g)))
        rhs = f_mul(f_mul(f, g), expectation(a))
        assert f_is_zero(f_sub(lhs, rhs), 1e-9)
        lhs2 = expectation(alg_mul(alg_mul(d, a), dinv))
        assert f_is_zero(f_sub(lhs2, f_compose_sigma(expectation(a), -1)), 1e-9)
        assert alg_norm(from_func(expectation(a))) <= alg_norm(a) + 1e-12


def test_expectation_positive_square(cycle3, rng):
    from crossedprod.funcspace import f_add
    for _ in range(25):
        b = random_element(cycle3, rng, 3)
        got = expectation(alg_mul(alg_adj(b), b))
        want = zero_func(cycle3)
        for n, fn in b.coeffs.items():
            sh = f_compose_sigma(fn, n)
            want = f_add(want, f_mul(f_conj(sh), sh))
        assert f_is_zero(f_sub(got, want), 1e-9)


def test_expectation_faithful_on_squares(cycle3, rng):
    # E(b* b) = 0 forces b = 0: check the contrapositive on random nonzero b
    for _ in range(25):
        b = random_element(cycle3, rng, 3)
        if elem_is_zero(b, 1e-12):
            continue
        assert not f_is_zero(expectation(alg_mul(alg_adj(b), b)), 1e-12)
    assert f_is_zero(expectation(alg_mul(alg_adj(zero_element(cycle3)),
                                         zero_element(cycle3))))


def test_dual_action_laws(cycle3, rng):
    for _ in range(20):
        a = random_element(cycle3, rng, 3)
        b = random_element(cycle3, rng, 3)
        lam = random_unimodular(rng)
        assert elem_close(dual_action(alg_mul(a, b), lam),
                          alg_mul(dual_action(a, lam), dual_action(b, lam)), 1e-9)
        assert elem_close(dual_action(alg_adj(a), lam),
                          alg_adj(dual_action(a, lam)), 1e-9)
        assert abs(alg_norm(dual_action(a, lam)) - alg_norm(a)) < 1e-9
        f = random_func(cycle3, rng)
        assert elem_close(dual_action(from_func(f), lam), from_func(f), 1e-12)
    d = delta_power(cycle3, 3)
    lam = random_unimodular(rng)
    got = dual_action(d, lam)
    assert abs(complex(f_eval(got.coeff(3), pt(0))) - complex(lam) ** 3) < 1e-12


def test_dual_average_against_float_summation_oracle(cycle3, rng):
    for _ in range(30):
        a = random_element(cycle3, rng, 3)
        M = rng.randint(1, 9)
        got = dual_average(a, M)
        # oracle: literal averaging over the M-th roots of unity
        acc = zero_element(cycle3)
        for m in range(M):
            lam = cmath.exp(2j * math.pi * m / M)
            acc = alg_add(acc, dual_action(a, lam))
        acc = alg_scale(1.0 / M, acc)
        assert elem_close(got, acc, 1e-9)


def test_dual_average_is_expectation_beyond_support(cycle3, rng):
    for _ in range(30):
        a = random_element(cycle3, rng, 3)
        M = 2 * a.support_radius() + 1
        assert elem_close(dual_average(a, M), from_func(expectation(a)), 0.0)


def test_fourier_eval_identities(cycle3, rng):
    x = pt(1)
    assert complex(fourier_eval(unit(cycle3), x, 1j)) == 1 + 0j
    for _ in range(25):
        a = random_element(cycle3, rng, 3)
        lam = random_unimodular(rng)
        k = rng.randint(-3, 3)
        lhs = fourier_eval(alg_mul(a, delta_power(cycle3, k)), x, lam)
        rhs = complex(lam) ** k if k >= 0 else complex(lam).conjugate() ** (-k)
        assert abs(complex(lhs) - rhs * fourier_oracle(a, x, lam)) < 1e-9
        # adjoint transform identity against the direct conjugated sum
        want = sum(
            complex(lam) ** n * complex(f_eval(f, apply_sigma(cycle3, x, n)))
            if n >= 0 else
            complex(lam).conjugate() ** (-n) * complex(f_eval(f, apply_sigma(cycle3, x, n)))
            for n, f in a.coeffs.items()
        ).conjugate()
        got = fourier_eval(alg_adj(a), x, lam)
        assert abs(complex(got) - want) < 1e-9


def test_fourier_eval_brings_its_parameter_and_element_into_one_mode(cycle3):
    # an exact element with a float parameter gives the float value, as
    # rep_periodic and Pxl membership do; an exact parameter stays exact
    from crossedprod.scalars import qc
    a = alg_sub(unit(cycle3, exact=True), delta_power(cycle3, 3, exact=True))
    got = fourier_eval(a, pt(0), 1j)
    assert type(got) is complex and got == 1 + 1j
    assert fourier_eval(a, pt(0), qc(0, 1)) == qc(1, 1)
    assert fourier_eval(alg_sub(unit(cycle3), delta_power(cycle3, 3)), pt(0), qc(0, 1)) == 1 + 1j


def test_dual_action_brings_its_parameter_and_element_into_one_mode(cycle3):
    a = parse_elem("f{0:1,1:2} + f{2:1}*d", cycle3, exact=True)
    got = dual_action(a, 1j)  # an exact element at a float parameter: float
    assert not got.exact and got == dual_action(parse_elem("f{0:1,1:2} + f{2:1}*d", cycle3), 1j)
    assert got.coeff(1).data == (0j, 0j, 1j)
    assert dual_action(a, qc(0, 1)).coeff(1).data == (qc(0), qc(0), qc(0, 1))
    b = parse_elem("f{0:1,1:2} + f{2:1}*d", cycle3)
    assert dual_action(b, qc(0, 1)) == got  # a float element at an exact one: float


def test_alg_scale_refuses_a_scalar_of_the_other_mode(cycle3):
    with pytest.raises(ModeMismatchError):
        alg_scale(2j, unit(cycle3, exact=True))
    with pytest.raises(ModeMismatchError):
        alg_scale(qc(2), unit(cycle3))
    # the zero element has no mode: either scalar scales it
    assert alg_scale(qc(2), zero_element(cycle3)) == zero_element(cycle3)
    assert alg_scale(2j, zero_element(cycle3)) == zero_element(cycle3)


def test_fourier_func_is_the_transform_at_every_point(cycle3, shift_union_cycle3, rng):
    for system, points in ((cycle3, [pt(i) for i in range(3)]),
                           (shift_union_cycle3, [pt(0, 0), pt(5, 0), pt(2, 1)])):
        for _ in range(10):
            a = random_element(system, rng, 3)
            lam = random_unimodular(rng)
            h = fourier_func(a, lam)
            assert h.system == system
            for x in points:
                assert abs(complex(system.eval(h, x)) - fourier_oracle(a, x, lam)) < 1e-9
                assert system.eval(h, x) == fourier_eval(a, x, lam)


def test_fourier_eval_function_actions(cycle3, rng):
    # left/right multiplication by functions and by powers of the generator
    x = pt(2)
    for _ in range(20):
        a = random_element(cycle3, rng, 3)
        f = random_func(cycle3, rng)
        lam = random_unimodular(rng)
        k = rng.randint(-3, 3)
        lamk = complex(lam) ** k if k >= 0 else complex(lam).conjugate() ** (-k)
        got = fourier_eval(alg_mul(delta_power(cycle3, k), a), x, lam)
        want = lamk * fourier_oracle(a, apply_sigma(cycle3, x, -k), lam)
        assert abs(complex(got) - want) < 1e-9
        got2 = fourier_eval(alg_mul(from_func(f), a), x, lam)
        assert abs(complex(got2)
                   - complex(f_eval(f, x)) * fourier_oracle(a, x, lam)) < 1e-9
        got3 = fourier_eval(alg_mul(a, from_func(f)), x, lam)
        want3 = sum(
            (complex(lam) ** n if n >= 0 else complex(lam).conjugate() ** (-n))
            * complex(f_eval(g, x))
            * complex(f_eval(f, apply_sigma(cycle3, x, -n)))
            for n, g in a.coeffs.items()
        )
        assert abs(complex(got3) - want3) < 1e-9


def test_fourier_injective_on_finite_systems(cycle3, rng):
    # vanishing at all points and enough roots of unity forces zero:
    # inverse discrete Fourier oracle over the support window
    for _ in range(10):
        a = random_element(cycle3, rng, 3)
        M = 2 * a.support_radius() + 1
        if elem_is_zero(a, 1e-12):
            continue
        vals = [
            abs(complex(fourier_eval(a, x, cmath.exp(2j * math.pi * m / M))))
            for m in range(M) for x in probe_points(cycle3)
        ]
        assert max(vals) > 1e-10


def test_exact_mode_end_to_end(cycle3, rng):
    a = random_element(cycle3, rng, 3, exact=True)
    b = random_element(cycle3, rng, 3, exact=True)
    ab = alg_mul(a, b)
    assert ab.exact
    lhs = alg_adj(alg_mul(a, b))
    rhs = alg_mul(alg_adj(b), alg_adj(a))
    assert all(lhs.coeff(n) == rhs.coeff(n)
               for n in set(lhs.coeffs) | set(rhs.coeffs))


def test_system_mismatch(cycle3, shift):
    a = unit(cycle3)
    b = unit(shift)
    with pytest.raises(SystemMismatchError):
        alg_add(a, b)
    with pytest.raises(SystemMismatchError):
        alg_mul(a, b)


def test_rotation_algebra_phases(golden_rotation):
    # delta * z * delta^{-1} = z o sigma^{-1} = phase-shifted monomial
    z = from_func(trig_poly(golden_rotation, {1: 1 + 0j}))
    d = delta_power(golden_rotation, 1)
    conj = alg_mul(alg_mul(d, z), delta_power(golden_rotation, -1))
    theta = golden_rotation.theta_value()
    got = conj.coeff(0).data[1]
    assert abs(got - cmath.exp(-2j * math.pi * theta)) < 1e-12


def test_elem_close_compares_with_the_zero_element_in_exact_mode(cycle3):
    # the zero element has no mode, so an exact element is compared with it
    # as with any other: the difference is the element itself
    a = alg_add(unit(cycle3, exact=True), delta_power(cycle3, 1, exact=True))
    zero = zero_element(cycle3)
    assert not elem_close(a, zero, 0) and not elem_close(zero, a, 0)
    assert elem_close(zero, zero, 0) and elem_close(a, a, 0)
