from fractions import Fraction

import pytest

from crossedprod.dynsys import (
    GOLDEN_CONJUGATE, INF, CircleSet, FiniteSet,
    RotationSystem, ShiftSet, Surd, UnionSet, UnionSystem,
    apply_sigma, is_free, is_invariant_closed, is_minimal,
    orbit_closure, orbit_points, period, pt, set_equal, turns_eq, whole_space,
)
from crossedprod.errors import SystemMismatchError, UnsupportedQueryError


def test_apply_sigma_cycle(cycle3):
    assert apply_sigma(cycle3, pt(0), 2) == pt(2)
    assert apply_sigma(cycle3, pt(0), 0) == pt(0)
    assert apply_sigma(cycle3, pt(0), -1) == pt(2)
    assert apply_sigma(cycle3, pt(0), 300) == pt(0)


def test_apply_sigma_composition_law(cycle3, shift, golden_rotation):
    for sys, x in ((cycle3, pt(1)), (shift, pt(4)), (golden_rotation, pt(0.3))):
        for j in (-3, 0, 2):
            for k in (-2, 1, 5):
                direct = apply_sigma(sys, x, j + k)
                stepped = apply_sigma(sys, apply_sigma(sys, x, j), k)
                if isinstance(sys, RotationSystem):
                    assert turns_eq(direct.coord, stepped.coord)
                else:
                    assert direct == stepped


def test_shift_fixed_point(shift):
    assert apply_sigma(shift, pt(INF), 5) == pt(INF)
    assert period(shift, pt(INF)) == 1
    assert period(shift, pt(0)) is None


def test_rotation_step_is_phase(golden_rotation):
    theta = golden_rotation.theta_value()
    y = apply_sigma(golden_rotation, pt(0.25), 1)
    assert turns_eq(y.coord, (0.25 + theta) % 1.0, 1e-12)


def test_periods(cycle3, perm1235, golden_rotation, rational_rotation):
    assert period(cycle3, pt(1)) == 3
    assert period(perm1235, pt(0)) == 1
    assert period(perm1235, pt(1)) == 2
    assert period(perm1235, pt(3)) == 3
    assert period(perm1235, pt(6)) == 5
    assert period(golden_rotation, pt(0.0)) is None
    assert period(rational_rotation, pt(Fraction(1, 7))) == 3


def test_period_divides(cycle3, perm1235):
    for sys in (cycle3, perm1235):
        for i in range(sys.size):
            p = period(sys, pt(i))
            assert apply_sigma(sys, pt(i), p) == pt(i)
            for k in range(1, 13):
                if apply_sigma(sys, pt(i), k) == pt(i):
                    assert k % p == 0


def test_orbit_closure_finite(cycle3):
    assert set_equal(cycle3, orbit_closure(cycle3, pt(1)),
                     FiniteSet(frozenset({0, 1, 2})))


def test_orbit_closure_shift_integer_reaches_everything(shift):
    # oracle: iterates of 7 hit any target integer and escape any window
    x = pt(7)
    hits = {apply_sigma(shift, x, k).coord for k in range(-30, 31)}
    for target in (-20, -1, 0, 5, 23):
        assert target in hits
    closure = orbit_closure(shift, x)
    assert closure == ShiftSet(frozenset(), True, True)
    assert shift.contains(closure, pt(INF))
    assert shift.contains(closure, pt(-1000))


def test_orbit_closure_rotation_dense(golden_rotation):
    assert orbit_closure(golden_rotation, pt(0.1)) == CircleSet(True)


def test_orbit_closure_is_invariant_closed(cycle3, shift, golden_rotation):
    for sys, x in ((cycle3, pt(1)), (shift, pt(3)), (shift, pt(INF)),
                   (golden_rotation, pt(0.2))):
        S = orbit_closure(sys, x)
        assert is_invariant_closed(sys, S)
        assert set_equal(sys, sys.largest_invariant_subset(S), S)


def test_largest_invariant_subset_examples(swap_fix, shift):
    # 0 <-> 1, 2 fixed; S = {0, 2}: the orbit of 0 leaves S
    got = swap_fix.largest_invariant_subset(FiniteSet(frozenset({0, 2})))
    assert got == FiniteSet(frozenset({2}))
    # shift: a finite window plus infinity keeps only infinity
    S = ShiftSet(frozenset(range(6)), True)
    # oracle: brute-force orbit check for representable points
    for n in range(6):
        assert any(
            not shift.contains(S, apply_sigma(shift, pt(n), k))
            for k in range(-10, 11)
        )
    assert shift.largest_invariant_subset(S) == ShiftSet(frozenset(), True)
    # whole space is always invariant
    for sys in (swap_fix, shift):
        W = whole_space(sys)
        assert set_equal(sys, sys.largest_invariant_subset(W), W)


def test_largest_invariant_subset_monotone_idempotent(swap_fix):
    import itertools
    sets = [FiniteSet(frozenset(s))
            for r in range(4) for s in itertools.combinations(range(3), r)]
    for S in sets:
        inv = swap_fix.largest_invariant_subset(S)
        assert swap_fix.subset(inv, S)
        assert set_equal(swap_fix, swap_fix.largest_invariant_subset(inv), inv)
        for T in sets:
            if swap_fix.subset(S, T):
                assert swap_fix.subset(
                    swap_fix.largest_invariant_subset(S),
                    swap_fix.largest_invariant_subset(T),
                )


def test_irrational_rotation_finite_sets_have_no_invariant_part(golden_rotation):
    S = CircleSet(False, (0.1, 0.25))
    assert golden_rotation.largest_invariant_subset(S) == CircleSet(False, ())
    assert not is_invariant_closed(golden_rotation, S)


def test_free_and_minimal(cycle3, shift, golden_rotation, rational_rotation, perm23):
    assert is_free(golden_rotation) and is_minimal(golden_rotation)
    assert not is_free(cycle3) and is_minimal(cycle3)
    assert not is_free(shift) and not is_minimal(shift)
    assert not is_free(rational_rotation) and not is_minimal(rational_rotation)
    assert not is_minimal(perm23)
    union = UnionSystem((golden_rotation, RotationSystem(Surd(-2, 1, 7, 3))))
    assert is_free(union)
    assert not is_minimal(union)
    assert not is_free(UnionSystem((golden_rotation, cycle3)))


def test_union_delegates_componentwise(shift_union_cycle3):
    U = shift_union_cycle3
    x = pt(0, 1)  # finite component, point 0
    assert apply_sigma(U, x, 1) == pt(1, 1)
    assert period(U, x) == 3
    assert period(U, pt(5, 0)) is None
    closure = orbit_closure(U, pt(5, 0))
    assert isinstance(closure, UnionSet)
    assert closure.parts[0] == ShiftSet(frozenset(), True, True)
    assert closure.parts[1] == FiniteSet(frozenset())


def test_set_algebra_shift(shift):
    fin = ShiftSet(frozenset({1, 2}))
    cof = ShiftSet(frozenset({2, 3}), True, True)
    u = shift.union(fin, cof)
    assert u == ShiftSet(frozenset({3}), True, True)
    i = shift.intersect(fin, cof)
    assert i == ShiftSet(frozenset({1}))
    assert shift.subset(i, fin)
    assert shift.subset(cof, whole_space(shift))
    assert not shift.subset(cof, fin)


def test_shift_infinite_sets_contain_infinity():
    # the cofinite normal form cannot be built without infinity
    with pytest.raises(ValueError):
        ShiftSet(frozenset(), False, True)


def test_enumerate_invariant_sets(perm23, shift, golden_rotation, rational_rotation):
    sets = perm23.invariant_closed_sets()
    assert len(sets) == 4  # two orbits -> 2^2 unions
    assert len(shift.invariant_closed_sets()) == 3
    assert len(golden_rotation.invariant_closed_sets()) == 2
    assert rational_rotation.invariant_closed_sets() is None
    U = UnionSystem((perm23, shift))
    assert len(U.invariant_closed_sets()) == 12


def test_cover_representatives(perm23, shift):
    reps = perm23.cover_representatives(whole_space(perm23))
    assert {r.coord for r in reps} == {0, 2}
    assert [r.coord for r in shift.cover_representatives(whole_space(shift))] == [0]
    assert [r.coord for r in shift.cover_representatives(ShiftSet(frozenset(), True))] == [INF]
    orbits = shift.all_orbits_in(whole_space(shift))
    assert {repr(r.coord) for r in orbits} == {"0", "inf"}


def test_point_validation(cycle3, shift):
    with pytest.raises(SystemMismatchError):
        apply_sigma(cycle3, pt(7), 1)
    with pytest.raises(SystemMismatchError):
        apply_sigma(cycle3, pt(0, 1), 1)
    with pytest.raises(SystemMismatchError):
        apply_sigma(shift, pt(0.5), 1)


def test_surd_high_precision_multiples():
    s = GOLDEN_CONJUGATE
    theta = s.value()
    # small multiples agree with float arithmetic
    for m in (1, 2, 7, 100):
        assert abs(s.times_mod1(m) - (theta * m) % 1.0) < 1e-9
    # large multiples stay in [0, 1) and satisfy the addition law
    big = 10 ** 12 + 7
    a = s.times_mod1(big)
    b = s.times_mod1(big + 1)
    assert 0 <= a < 1 and 0 <= b < 1
    assert abs(((a + theta) % 1.0) - b) < 1e-9


def test_rational_rotation_orbits(rational_rotation):
    orb = orbit_points(rational_rotation, pt(Fraction(0)))
    assert [p.coord for p in orb] == [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
    S = orbit_closure(rational_rotation, pt(Fraction(0)))
    assert is_invariant_closed(rational_rotation, S)
    reps = rational_rotation.all_orbits_in(S)
    assert len(reps) == 1
    with pytest.raises(UnsupportedQueryError):
        rational_rotation.all_orbits_in(whole_space(rational_rotation))


def test_finite_sigma_powers_are_cached_on_the_instance(perm1235):
    import copy
    import pickle

    from crossedprod.finite import FiniteSystem
    fresh = FiniteSystem(11, perm1235.sigma)
    for k in range(-35, 35):  # the order is lcm(1, 2, 3, 5) = 30
        x = pt(7)
        for _ in range(abs(k)):
            x = pt(perm1235.sigma.index(x.coord) if k < 0 else perm1235.sigma[x.coord])
        assert perm1235.apply_sigma(pt(7), k) == x
    assert perm1235._powers != fresh._powers  # the caches differ, equality does not see them
    assert perm1235 == fresh and hash(perm1235) == hash(fresh)
    assert "_powers" not in repr(perm1235) and list(perm1235.__record_fields__) == ["size", "sigma"]
    for clone in (pickle.loads(pickle.dumps(perm1235)), copy.deepcopy(perm1235)):
        assert clone == perm1235 and clone.apply_sigma(pt(7), 29) == perm1235.apply_sigma(pt(7), 29)
