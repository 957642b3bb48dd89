import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from crossedprod import scalars as sc
from crossedprod.algebra import alg_mul, alg_sub, element, unit
from crossedprod.dynsys import (
    CircleSet, FiniteSet, ShiftSet, pt, INF, turns_eq,
)
from crossedprod.errors import ModeMismatchError, SystemMismatchError
from crossedprod.funcspace import (
    cx_basis, f_add, f_algnorm, f_compose_sigma, f_conj, f_eval,
    f_mul, f_scale, f_sub, f_supnorm_bounds, f_zero_set,
    finite_func, func_close, one_func, point_indicator, separating_func,
    shift_func, trig_poly, union_func, vanishes_on,
)
from crossedprod.hullkernel import (
    decompose_as_intersection, hull_kernel_compose, kernel_member, kernel_project,
)
from crossedprod.reps_ideals import kernel_ideal, restrict_system
from crossedprod.sampling import random_func, random_func_vanishing_on


def test_finite_pointwise_mul(cycle3):
    f = finite_func(cycle3, (1 + 0j, 2 + 0j, 0j))
    g = finite_func(cycle3, (3 + 0j, 4 + 0j, 1j))
    assert f_mul(f, g).data == ((3 + 0j), (8 + 0j), 0j)


def test_conj_of_monomial(golden_rotation):
    z = trig_poly(golden_rotation, {1: 1 + 0j})
    assert f_conj(z).data == {-1: (1 + 0j)}


def test_shift_idempotent_indicatorlike(shift):
    f = shift_func(shift, 1 + 0j, {0: 0j})
    assert f_mul(f, f) == f


def test_compose_sigma_finite(cycle3):
    f = finite_func(cycle3, (10 + 0j, 20 + 0j, 30 + 0j))
    g = f_compose_sigma(f, 1)
    # g(x) = f(sigma x): sigma(0)=1 so g(0)=20
    assert g.data == ((20 + 0j), (30 + 0j), (10 + 0j))


def test_compose_sigma_rotation_phase(golden_rotation):
    theta = golden_rotation.theta_value()
    z = trig_poly(golden_rotation, {1: 1 + 0j})
    g = f_compose_sigma(z, 1)
    assert abs(g.data[1] - cmath.exp(2j * math.pi * theta)) < 1e-12


def test_compose_is_automorphism(cycle3, shift, golden_rotation, rng):
    for sys in (cycle3, shift, golden_rotation):
        f = random_func(sys, rng)
        g = random_func(sys, rng)
        for k in (-2, 1, 3):
            lhs = f_compose_sigma(f_mul(f, g), k)
            rhs = f_mul(f_compose_sigma(f, k), f_compose_sigma(g, k))
            assert func_close(lhs, rhs, 1e-9)


def test_compose_composition_law(cycle3, shift, golden_rotation, rng):
    for sys in (cycle3, shift, golden_rotation):
        f = random_func(sys, rng)
        for j in (-2, 3):
            for k in (1, -4):
                assert func_close(
                    f_compose_sigma(f, j + k),
                    f_compose_sigma(f_compose_sigma(f, j), k),
                    1e-9,
                )


def test_eval_models(cycle3, shift, golden_rotation):
    f = finite_func(cycle3, (5 + 0j, 6 + 0j, 7 + 0j))
    assert f_eval(f, pt(1)) == 6 + 0j
    g = shift_func(shift, 2 + 0j, {3: 9 + 0j})
    assert f_eval(g, pt(3)) == 9 + 0j
    assert f_eval(g, pt(12)) == 2 + 0j
    assert f_eval(g, pt(INF)) == 2 + 0j
    h = trig_poly(golden_rotation, {1: 1 + 0j, 0: 2 + 0j})
    v = f_eval(h, pt(0.25))
    assert abs(v - (2 + 1j)) < 1e-12


def test_supnorm_finite_exact():
    from crossedprod.dynsys import FiniteSystem
    sys = FiniteSystem(3, (0, 1, 2))
    f = finite_func(sys, (1 + 0j, -2 + 0j, 3j))
    assert f_supnorm_bounds(f) == (3.0, 3.0)


def test_supnorm_wiener_bounds(golden_rotation):
    f = trig_poly(golden_rotation, {1: 1 + 0j, -1: 1 + 0j})
    lo, hi = f_supnorm_bounds(f)
    assert hi == 2.0
    # grid oracle: the sup of |2 cos| over any grid through 0 is 2
    assert lo >= 1.99
    assert lo <= hi + 1e-12


def test_wiener_norm_submultiplicative(golden_rotation, rng):
    for _ in range(50):
        f = random_func(golden_rotation, rng)
        g = random_func(golden_rotation, rng)
        assert f_algnorm(f_mul(f, g)) <= f_algnorm(f) * f_algnorm(g) + 1e-9


def test_compose_preserves_algnorm(cycle3, shift, golden_rotation, rng):
    for sys in (cycle3, shift, golden_rotation):
        f = random_func(sys, rng)
        for k in (-3, 2):
            assert abs(f_algnorm(f_compose_sigma(f, k)) - f_algnorm(f)) < 1e-9


def test_zero_set_finite():
    from crossedprod.dynsys import FiniteSystem
    sys = FiniteSystem(3, (0, 1, 2))
    f = finite_func(sys, (0j, 1 + 0j, 0j))
    assert f_zero_set(f) == FiniteSet(frozenset({0, 2}))


def test_zero_set_rotation_single_root(golden_rotation):
    f = trig_poly(golden_rotation, {1: 1 + 0j, 0: -1 + 0j})  # z - 1
    zs = f_zero_set(f)
    assert not zs.whole and len(zs.turns) == 1
    assert turns_eq(zs.turns[0], 0.0, 1e-9)


def test_zero_set_rotation_two_roots(golden_rotation):
    f = trig_poly(golden_rotation, {2: 1 + 0j, 0: -1 + 0j})  # z^2 - 1
    zs = f_zero_set(f)
    # oracle: roots of z^2 - 1 via numpy on the raw polynomial
    want = sorted((cmath.phase(r) / (2 * math.pi)) % 1.0
                  for r in np.roots([1, 0, -1]))
    got = sorted(float(t) for t in zs.turns)
    assert len(got) == 2
    for g, w in zip(got, want):
        assert turns_eq(g, w, 1e-9)


def test_zero_set_of_product_contains_union(swap_fix, rng):
    for _ in range(30):
        f = random_func(swap_fix, rng, exact=True)
        g = random_func(swap_fix, rng, exact=True)
        zs = f_zero_set(f_mul(f, g))
        zu = swap_fix.union(f_zero_set(f), f_zero_set(g))
        assert swap_fix.subset(zu, zs)
        # exact rational scalars have no zero divisors pointwise: equality
        assert swap_fix.subset(zs, zu)


def test_shift_zero_set_forms(shift):
    f = shift_func(shift, 0j, {2: 1 + 0j, 3: 0j})
    zs = f_zero_set(f)
    assert zs == ShiftSet(frozenset({2}), True, True)
    g = shift_func(shift, 1 + 0j, {4: 0j})
    assert f_zero_set(g) == ShiftSet(frozenset({4}))


def test_vanishes_on(shift):
    f = shift_func(shift, 0j, {2: 1 + 0j})
    assert vanishes_on(f, ShiftSet(frozenset({0, 1}), True))
    assert not vanishes_on(f, ShiftSet(frozenset({2})))
    assert not vanishes_on(f, ShiftSet(frozenset(), True, True))


def test_mode_mixing_rejected(cycle3):
    f = finite_func(cycle3, (sc.qc(1), sc.qc(2), sc.qc(0)))
    g = finite_func(cycle3, (1 + 0j, 2 + 0j, 0j))
    with pytest.raises((ModeMismatchError, TypeError)):
        f_add(f, g)
    with pytest.raises(ModeMismatchError):
        finite_func(cycle3, (sc.qc(1), 1 + 0j, 0j))
    with pytest.raises(ModeMismatchError):
        trig_poly(__import__("crossedprod.dynsys", fromlist=["RotationSystem"])
                  .RotationSystem(Fraction(1, 3), irrational=False), {0: sc.qc(1)})
    with pytest.raises(ModeMismatchError):
        element(cycle3, {0: g, 1: f})
    with pytest.raises(ModeMismatchError):
        alg_mul(element(cycle3, {0: f}), element(cycle3, {0: g}))
    # an exact computation that cancels to zero still meets exact elements
    ef = element(cycle3, {0: f})
    assert alg_mul(alg_sub(ef, ef), ef).coeffs == {}


def test_boundary_validation(cycle3, shift, shift_union_cycle3):
    # public constructors check what the kernels later trust
    with pytest.raises(ModeMismatchError):
        finite_func(cycle3, (sc.qc(1), 1 + 0j, sc.qc(0)))
    with pytest.raises(ModeMismatchError):
        shift_func(shift, sc.qc(1), {2: 1 + 0j})
    with pytest.raises(SystemMismatchError):
        finite_func(cycle3, (1 + 0j, 0j))
    on_cycle3 = finite_func(cycle3, (1 + 0j, 0j, 0j))
    on_shift = shift_func(shift, 1 + 0j)
    with pytest.raises(SystemMismatchError):
        union_func(shift_union_cycle3, (on_cycle3, on_cycle3))
    with pytest.raises(SystemMismatchError):
        union_func(shift_union_cycle3, (on_shift,))
    with pytest.raises(ModeMismatchError):
        union_func(shift_union_cycle3,
                   (on_shift, finite_func(cycle3, (sc.qc(1), sc.qc(0), sc.qc(0)))))
    with pytest.raises(SystemMismatchError):
        element(cycle3, {0: on_shift})
    with pytest.raises(SystemMismatchError):
        element(shift_union_cycle3, {1: on_cycle3})
    # the mode is decided once, at construction
    assert finite_func(cycle3, (sc.qc(1), sc.qc(0), sc.qc(2))).exact
    assert not on_cycle3.exact
    assert union_func(shift_union_cycle3,
                      (shift_func(shift, sc.qc(1)), finite_func(cycle3, (sc.qc(1),) * 3))).exact
    # public entry points check the sets they are handed: one of another
    # model, and one naming a point the system does not have
    a = unit(cycle3)
    for bad in (ShiftSet(frozenset(), True, False), FiniteSet(frozenset({7}))):
        for call in (lambda: kernel_project(cycle3, bad, a),
                     lambda: vanishes_on(one_func(cycle3), bad),
                     lambda: separating_func(cycle3, bad, pt(0)),
                     lambda: kernel_ideal(cycle3, bad),
                     lambda: decompose_as_intersection(cycle3, bad),
                     lambda: restrict_system(cycle3, bad),
                     lambda: kernel_member(cycle3, bad, a),
                     lambda: hull_kernel_compose(cycle3, bad)):
            with pytest.raises(SystemMismatchError):
                call()


def test_kernel_results_in_normal_form(shift, golden_rotation, shift_union_cycle3, rng):
    # results equal the validated construction of the same values
    f = shift_func(shift, sc.qc(1), {2: sc.qc(3), 5: sc.qc(2)})
    g = shift_func(shift, sc.qc(0), {2: sc.qc(-2)})
    h = f_add(f, g)
    assert h.data == (sc.qc(1), {5: sc.qc(2)})
    assert h == shift_func(shift, sc.qc(1), {2: sc.qc(1), 5: sc.qc(2)}) and h.exact
    z = shift_func(shift, 0j, {1: 2 + 0j})
    assert f_mul(z, shift_func(shift, 1 + 0j, {1: 0j})).data == (0j, {})
    p = trig_poly(golden_rotation, {1: 1 + 0j, 2: 1j})
    q = trig_poly(golden_rotation, {1: -1 + 0j})
    assert f_add(p, q).data == {2: 1j} and not f_add(p, q).exact
    u = random_func(shift_union_cycle3, rng, exact=True)
    assert f_compose_sigma(f_conj(u), 2).exact


def test_system_mismatch_rejected(cycle3, shift):
    f = finite_func(cycle3, (1 + 0j, 0j, 0j))
    g = shift_func(shift, 1 + 0j)
    with pytest.raises(SystemMismatchError):
        f_add(f, g)


def test_union_functions(shift_union_cycle3, rng):
    U = shift_union_cycle3
    f = random_func(U, rng)
    g = random_func(U, rng)
    h = f_mul(f, g)
    x = pt(1, 1)
    assert abs(f_eval(h, x) - f_eval(f, x) * f_eval(g, x)) < 1e-12
    assert f_algnorm(f) == max(f_algnorm(f.data[0]), f_algnorm(f.data[1]))


def test_separating_func(shift_union_cycle3):
    U = shift_union_cycle3
    from crossedprod.dynsys import orbit_closure
    S = orbit_closure(U, pt(0, 0))  # whole shift component
    x2 = pt(0, 1)
    f = separating_func(U, S, x2)
    assert vanishes_on(f, S)
    assert abs(f_eval(f, x2)) > 0.5


def test_indicator(cycle3, shift):
    e1 = point_indicator(cycle3, pt(1))
    assert e1.data == (0j, 1 + 0j, 0j)
    e0 = point_indicator(shift, pt(0))
    assert f_eval(e0, pt(0)) == 1 + 0j and f_eval(e0, pt(1)) == 0j
    from crossedprod.errors import UnsupportedQueryError
    with pytest.raises(UnsupportedQueryError):
        point_indicator(shift, pt(INF))


def test_cx_basis_spans_expected(cycle3, shift, golden_rotation):
    assert len(cx_basis(cycle3)) == 3
    b = cx_basis(shift, ints_window=(0, 1))
    assert len(b) == 3  # constant plus two indicators
    r = cx_basis(golden_rotation, max_freq=2)
    assert [sorted(f.data) for f in r] == [[0], [1], [2]]


def test_the_checked_functions_refuse_mixed_modes(cycle3):
    fe = finite_func(cycle3, (sc.qc(1), sc.qc(2), sc.qc(0)))
    ff = finite_func(cycle3, (1j, 2 + 0j, 0j))
    for op in (f_add, f_mul, f_sub):
        with pytest.raises(ModeMismatchError):
            op(fe, ff)
        with pytest.raises(ModeMismatchError):
            op(ff, fe)
    with pytest.raises(ModeMismatchError):
        f_scale(sc.qc(2), ff)
    with pytest.raises(ModeMismatchError):
        f_scale(2j, fe)
    assert f_scale(sc.qc(2), fe).data == (sc.qc(2), sc.qc(4), sc.qc(0))
    assert f_sub(ff, ff).data == (0j, 0j, 0j)


@pytest.mark.parametrize("turns", [(0.0,), (Fraction(1, 4), 0.6), (0.1, 0.35, Fraction(2, 3))])
def test_a_random_rotation_function_vanishing_on_finitely_many_turns(
        golden_rotation, rational_rotation, rng, turns):
    """The draw is the separating product over the turns times a random
    function: zero at each turn, and not the zero function."""
    for R in (golden_rotation, rational_rotation):
        S = CircleSet(False, turns)
        for _ in range(5):
            f = random_func_vanishing_on(R, S, rng)
            assert R.vanishes_on(f, S, 1e-9)
            assert all(abs(f_eval(f, pt(t))) <= 1e-9 for t in turns)
            assert R.point_where_nonzero(f, 1e-9) is not None
