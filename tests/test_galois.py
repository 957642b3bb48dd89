import itertools


from crossedprod.dynsys import (
    FiniteSet, pt, whole_space,
)
from crossedprod.funcspace import f_zero_set, finite_func, point_indicator
from crossedprod.galois import (
    check_assumption, check_fixed_point_laws, check_min_max,
    check_order_reflection, check_three_maps, classical_pair, eq_a,
    hull_kernel_pair, zeros_synth_pair, torus_leq,
)
from crossedprod.reps_ideals import canonical_px_lambda, kernel_ideal
from crossedprod.sampling import canonical_handles, random_func
from crossedprod.transform import (
    FiniteRoots, FullCircle, TorusEntry, TorusSubset, zeros_of_ideal,
)


def classical_samples(system, rng, count=10):
    fams = [tuple(random_func(system, rng) for _ in range(rng.randint(1, 3)))
            for _ in range(count)]
    subs = [f_zero_set(random_func(system, rng)) for _ in range(count // 2)]
    subs.append(FiniteSet(frozenset()))
    subs.append(whole_space(system))
    return fams, subs


def test_classical_pair_laws(cycle3, rng):
    pair = classical_pair(cycle3)
    fams, subs = classical_samples(cycle3, rng)
    assert check_assumption(pair, fams, subs).ok
    assert check_three_maps(pair, fams, subs).ok
    assert check_fixed_point_laws(pair, fams, subs).ok


def test_classical_min_max_exhaustive(swap_fix, rng):
    # the full lattice of subsets is tiny: candidates are all kernels
    pair = classical_pair(swap_fix)
    all_subsets = [FiniteSet(frozenset(s))
                   for r in range(4) for s in itertools.combinations(range(3), r)]
    fixed = [pair.beta(S) for S in all_subsets]
    fams, _ = classical_samples(swap_fix, rng)
    for fam in fams:
        assert check_min_max(pair, fam, fixed).ok
        closure = pair.beta(pair.alpha(fam))
        assert check_order_reflection(pair, closure, fams).ok


def test_hk_pair_laws(shift_union_cycle3, rng):
    U = shift_union_cycle3
    pair = hull_kernel_pair(U)
    handles = canonical_handles(U, lam_values=(1 + 0j, 1j))
    sets = U.invariant_closed_sets()
    assert check_assumption(pair, handles, sets).ok
    assert check_three_maps(pair, handles, sets).ok
    assert check_fixed_point_laws(pair, handles, sets).ok


def test_hk_min_max_exhaustive_fixed_points(perm23, rng):
    # on a finite system the fixed points are exactly the kernels of the
    # finitely many invariant closed sets
    pair = hull_kernel_pair(perm23)
    fixed = [pair.beta(S) for S in perm23.invariant_closed_sets()]
    for I in canonical_handles(perm23, lam_values=(1j,)):
        assert check_min_max(pair, I, fixed).ok


def test_hk_preimage_of_badly_behaved_is_everything(cycle3):
    pair = hull_kernel_pair(cycle3)
    P = canonical_px_lambda(cycle3, pt(0), 1j)
    closure = pair.beta(pair.alpha(P))
    # the closure is the kernel of the empty set: everything
    assert eq_a(pair, closure, kernel_ideal(cycle3, FiniteSet(frozenset())))


def test_hk_order_reflection_negative_control(cycle3):
    pair = hull_kernel_pair(cycle3)
    P = canonical_px_lambda(cycle3, pt(0), 1j)
    rep = check_order_reflection(pair, P, [P])
    assert not rep.ok  # a badly behaved handle is not a fixed point


def test_zi_pair_laws(cycle3, shift_union_cycle3, rng):
    for sys in (cycle3, shift_union_cycle3):
        pair = zeros_synth_pair(sys)
        handles = canonical_handles(sys, lam_values=(1 + 0j, 1j))
        tsets = [zeros_of_ideal(h) for h in handles]
        assert check_assumption(pair, handles, tsets).ok
        assert check_three_maps(pair, handles, tsets).ok
        assert check_fixed_point_laws(pair, handles, tsets).ok
        fixed = [pair.beta(pair.alpha(h)) for h in handles]
        for I in handles[:4]:
            assert check_min_max(pair, I, fixed).ok
            assert check_order_reflection(pair, pair.beta(pair.alpha(I)), handles).ok


def test_symmetry_of_orientations(cycle3, rng):
    # swapping the two sides leaves every law checkable and true
    from crossedprod.galois import GaloisPair
    pair = hull_kernel_pair(cycle3)
    handles = canonical_handles(cycle3, lam_values=(1j,))
    sets = cycle3.invariant_closed_sets()
    swapped = GaloisPair("HK-swapped", alpha=pair.beta, beta=pair.alpha,
                         leq_a=pair.leq_b, leq_b=pair.leq_a)
    assert check_assumption(swapped, sets, handles).ok
    assert check_three_maps(swapped, sets, handles).ok
    assert check_fixed_point_laws(swapped, sets, handles).ok


def test_assumption_violation_is_reported(cycle3):
    # a deliberately broken pair: beta forgets everything
    from crossedprod.galois import GaloisPair
    pair = classical_pair(cycle3)
    broken = GaloisPair(
        "broken",
        alpha=pair.alpha,
        beta=lambda S: (finite_func(cycle3, (1 + 0j, 1 + 0j, 1 + 0j)),),
        leq_a=pair.leq_a,
        leq_b=pair.leq_b,
    )
    subs = [FiniteSet(frozenset({0}))]
    fams = [(point_indicator(cycle3, pt(1)),)]
    rep = check_assumption(broken, fams, subs)
    assert not rep.ok and rep.failures
    # every law's count and failure lines, in order; ok is derived from them
    fam = "(f{0:0,1:1,2:0},)"
    fixed = [pair.beta(FiniteSet(frozenset(s))) for s in ((), (0, 1, 2))]
    reports = [rep, check_three_maps(broken, fams, subs),
               check_fixed_point_laws(broken, fams, subs),
               check_min_max(broken, fams[0], fixed + fams),
               check_order_reflection(broken, fams[0], fams),
               check_order_reflection(broken, broken.beta(subs[0]), fams)]
    assert [(r.name, r.ok, r.checked, r.failures) for r in reports] == [
        ("broken: assumption", False, 4, ("alpha(beta(b)) does not dominate b for b={0}",)),
        ("broken: triple composition", False, 2,
         (f"alpha.beta.alpha differs from alpha at {fam}",)),
        ("broken: fixed points", True, 4, ()),
        ("broken: min/max", False, 3, (f"fixed candidate {fam} dominates a but not the closure",)),
        # a point that is not fixed is one failing check, and the law stops there
        ("broken: order reflection", False, 1, (f"{fam} is not a fixed point of beta.alpha",)),
        ("broken: order reflection", True, 1, ()),
    ]


def test_min_max_counts_each_candidate_once_and_not_the_closure(cycle3):
    # with the ideal order reversed the closure no longer dominates a Pxl
    # handle: that failure line is added, but only the candidates count
    from crossedprod.galois import GaloisPair
    hk = hull_kernel_pair(cycle3)
    reversed_order = GaloisPair("reversed", alpha=hk.alpha, beta=hk.beta,
                                leq_a=lambda I, J: hk.leq_a(J, I), leq_b=hk.leq_b)
    fixed = [hk.beta(S) for S in cycle3.invariant_closed_sets()]
    rep = check_min_max(reversed_order, canonical_px_lambda(cycle3, pt(0), 1), fixed)
    assert (rep.ok, rep.checked, rep.failures) == (
        False, len(fixed), ("closure does not dominate Pxl(0, 1)",))


def test_torus_leq(cycle3):
    Z_full = zeros_of_ideal(canonical_px_lambda(cycle3, pt(0), 1 + 0j))
    from crossedprod.reps_ideals import canonical_qx
    Z_circle = zeros_of_ideal(canonical_qx(cycle3, pt(0)))
    assert torus_leq(cycle3, Z_full, Z_circle)
    assert not torus_leq(cycle3, Z_circle, Z_full)


def test_torus_leq_needs_one_covering_entry_where_orbits_cannot_be_listed(golden_rotation):
    """An irrational rotation's orbit closure is the circle, whose orbits
    cannot be enumerated: an entry is covered only by one entry over the
    whole part with a larger lambda set."""
    R = golden_rotation
    full = TorusSubset(R, (TorusEntry(pt(0.0), FullCircle(), use_closure=True),))
    roots = TorusSubset(R, (TorusEntry(pt(0.25), FiniteRoots((1j, -1 + 0j))),))
    assert torus_leq(R, full, full)
    assert torus_leq(R, roots, full)
    assert not torus_leq(R, full, roots)
    assert not torus_leq(R, roots, TorusSubset(R, ()))
    assert torus_leq(R, TorusSubset(R, ()), roots)
