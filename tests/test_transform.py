import cmath
import contextlib
import io
import math
import random
from pathlib import Path

import pytest

from crossedprod.algebra import (
    alg_mul, alg_sub, delta_power, from_func, unit,
)
from crossedprod.cli import run_command
from crossedprod.dynsys import (
    INF, orbit_points, pt,
)
from crossedprod.errors import UnsupportedQueryError
from crossedprod.funcspace import cx_basis, f_eval, finite_func, one_func
from crossedprod.parsing import parse_elem, parse_ideal, parse_scalar_text
from crossedprod.reps_ideals import (
    canonical_px, canonical_px_lambda, canonical_qx, escape_element,
    generated_ideal, ideal_member,
    rep_is_zero, rep_periodic,
)
from crossedprod.sampling import random_element, random_member
from crossedprod.scalars import unit_circle_roots
from crossedprod.transform import (
    FiniteRoots, FullCircle, TorusEntry, TorusSubset,
    adjoint_zeros_equal, ideal_leq, ideal_member_via_S, ideal_of_torus_set,
    lamset_roots, poly_gcd, pth_roots, tilde_member, torus_contains,
    torus_is_empty, zeros_nonempty_report, zeros_of_ideal,
    zi_closure,
)


DATA = Path(__file__).parent / "data"


def fourier_brute(a, x, mu):
    mu = complex(mu)
    return sum((mu ** n if n >= 0 else mu.conjugate() ** (-n)) * complex(f_eval(f, x))
               for n, f in a.coeffs.items())


def test_poly_gcd_basics():
    # (z-1)(z+1) and (z-1)(z-2) share the factor z-1
    g = poly_gcd([[-1, 0, 1], [2, -3, 1]])
    assert len(g) == 2
    assert abs(-g[0] / g[1] - 1) < 1e-9
    # coprime inputs give a constant
    assert poly_gcd([[1, 1], [2, 1]]) is not None
    assert len(poly_gcd([[-1, 1], [1, 1]])) == 1
    # all-zero inputs give None
    assert poly_gcd([[0, 0]]) is None


def test_unit_roots_of_poly():
    roots = unit_circle_roots([-1, 0, 0, 1], 1e-9)  # mu^3 = 1
    assert len(roots) == 3
    for r in roots:
        assert abs(r ** 3 - 1) < 1e-8
    # roots off the circle are filtered
    assert unit_circle_roots([-4, 0, 1], 1e-9) == []  # mu = +-2


def test_zeros_of_qx_full_circle(cycle3):
    Z = zeros_of_ideal(canonical_qx(cycle3, pt(0)))
    assert len(Z.entries) == 1
    assert isinstance(Z.entries[0].lamset, FullCircle)
    assert torus_contains(Z, pt(1), cmath.exp(0.71j))


def test_zeros_of_px_lambda_pth_roots(cycle3):
    lam = cmath.exp(2j * math.pi * 0.2)
    Z = zeros_of_ideal(canonical_px_lambda(cycle3, pt(0), lam))
    roots = lamset_roots(Z.entries[0].lamset)
    assert len(roots) == 3
    for mu in roots:
        assert abs(mu ** 3 - lam) < 1e-9
    # brute membership: exactly the cube roots of lam
    for k in range(12):
        mu = cmath.exp(2j * math.pi * k / 12)
        want = abs(mu ** 3 - lam) < 1e-6
        assert torus_contains(Z, pt(2), mu) == want


def test_zeros_of_px_closure(shift):
    Z = zeros_of_ideal(canonical_px(shift, pt(0)))
    assert torus_contains(Z, pt(INF), 1j)
    assert torus_contains(Z, pt(-5), -1 + 0j)


def test_zeros_generated_brute_force_grid(cycle3, rng):
    # the ideal generated by 1 - d^3 vanishes exactly on
    # orbit x {mu : mu^3 = 1}; oracle checks F(g f)(x, mu) = 0 over a basis
    g = alg_sub(unit(cycle3), delta_power(cycle3, 3))
    I = generated_ideal(cycle3, [g])
    Z = zeros_of_ideal(I)
    assert len(Z.entries) == 1
    roots = lamset_roots(Z.entries[0].lamset)
    assert len(roots) == 3
    basis = cx_basis(cycle3)
    for k in range(24):
        mu = cmath.exp(2j * math.pi * k / 24)
        brute = all(
            abs(fourier_brute(alg_mul(g, from_func(f)), x, mu)) < 1e-8
            for f in basis for x in orbit_points(cycle3, pt(0))
        )
        assert brute == torus_contains(Z, pt(0), mu)


def test_zeros_generated_matches_matrix_kernel(cycle3, rng):
    # shared-orbit oracle: (x, mu) in the zero set iff the generators die
    # in the periodic representation with parameter mu^p
    for _ in range(8):
        gens = [random_element(cycle3, rng, 2) for _ in range(rng.randint(1, 2))]
        I = generated_ideal(cycle3, gens)
        Z = zeros_of_ideal(I)
        for k in range(16):
            mu = cmath.exp(2j * math.pi * k / 16)
            matrix_zero = all(
                rep_is_zero(rep_periodic(cycle3, pt(0), mu ** 3, g), 1e-8)
                for g in gens
            )
            assert matrix_zero == torus_contains(Z, pt(0), mu, 1e-6)


def test_zeros_on_union_components(shift_union_cycle3):
    U = shift_union_cycle3
    g = alg_sub(unit(U), delta_power(U, 3))
    Z = zeros_of_ideal(generated_ideal(U, [g]))
    # shift component: aperiodic orbit needs all coefficients to vanish
    # on its closure, which fails; the fixed point at infinity has p = 1
    # with condition 1 - mu^3 = 0; finite component gives cube roots too
    pts = {repr(e.point) for e in Z.entries}
    assert pts == {"c0:inf", "c1:0"}
    for e in Z.entries:
        roots = lamset_roots(e.lamset)
        assert len(roots) == 3
        for mu in roots:
            assert abs(mu ** 3 - 1) < 1e-8


def test_zeros_keep_orbits_whose_conditions_differ_by_a_complex_scale(cycle3):
    # the per-orbit conditions are equal up to non-real constants; a gcd
    # remainder at rounding level must count as zero, or the orbit is lost
    q = [0.3 + 0.56j, 0, 0, -(0.3 + 0.56j)]
    assert len(poly_gcd([q, q, q])) == 4
    assert len(poly_gcd([[1, 0, 0, -1], [0.3 + 0.2j, 0, 0, -(0.3 + 0.2j)]])) == 4
    cases = [("gen(f{0:1,1:3/10+1/5i,2:7/10}*(1 - d^3))", True),
             ("gen((0.3+0.56i)*(1 - d^3))", False)]
    for text, exact in cases:
        I = parse_ideal(text, cycle3, exact)
        assert ideal_member(canonical_px_lambda(cycle3, pt(0), 1 + 0j), I.gens[0])
        Z = zeros_of_ideal(I)
        assert [repr(e.point) for e in Z.entries] == ["0"]
        roots = lamset_roots(Z.entries[0].lamset)
        assert len(roots) == 3
        for mu in roots:
            assert abs(mu ** 3 - 1) < 1e-8


def test_ideal_of_torus_set_recipe(cycle3, shift):
    # periodic orbit with one root: the torus-parameter kernel at mu^p
    mu = cmath.exp(2j * math.pi / 5)
    T = TorusSubset(cycle3, (TorusEntry(pt(0), FiniteRoots((mu,))),))
    I = ideal_of_torus_set(T)
    assert len(I.parts) == 1
    part = I.parts[0]
    assert type(part).__name__ == "PxLambdaIdeal"
    assert abs(complex(part.lam) - mu ** 3) < 1e-9
    # full circle gives the whole-orbit kernel
    T2 = TorusSubset(cycle3, (TorusEntry(pt(0), FullCircle()),))
    assert type(ideal_of_torus_set(T2).parts[0]).__name__ == "QxIdeal"
    # aperiodic singleton gives the orbit-closure kernel
    T3 = TorusSubset(shift, (TorusEntry(pt(0), FiniteRoots((1j,))),))
    assert type(ideal_of_torus_set(T3).parts[0]).__name__ == "PxIdeal"


def test_tilde_member_raw_vanishing(cycle3, rng):
    Z = zeros_of_ideal(canonical_px_lambda(cycle3, pt(0), 1 + 0j))
    a = escape_element(one_func(cycle3), 1 + 0j, 3)
    assert tilde_member(Z, a)
    # brute check at each root
    for mu in lamset_roots(Z.entries[0].lamset):
        for x in orbit_points(cycle3, pt(0)):
            assert abs(fourier_brute(a, x, mu)) < 1e-9
    assert not tilde_member(Z, unit(cycle3))


def test_synth_member_implies_tilde_member(cycle3, rng):
    mu = cmath.exp(2j * math.pi / 3)
    T = TorusSubset(cycle3, (TorusEntry(pt(0), FiniteRoots((mu,))),))
    for _ in range(25):
        a = random_member(ideal_of_torus_set(T), rng, 2) \
            if rng.random() < 0.5 else random_element(cycle3, rng, 2)
        if ideal_member_via_S(T, a):
            assert tilde_member(T, a)


def test_synth_member_matches_synthesized_ideal(cycle3, rng):
    mu = cmath.exp(2j * math.pi / 3)
    T = TorusSubset(cycle3, (TorusEntry(pt(0), FiniteRoots((mu,))),))
    I = ideal_of_torus_set(T)
    for _ in range(30):
        a = random_member(I, rng, 2) if rng.random() < 0.5 \
            else random_element(cycle3, rng, 2)
        assert ideal_member_via_S(T, a) == ideal_member(I, a)


def test_zi_closure_examples(cycle3, rng):
    # generated by 1 - d^3: closure is the parameter-1 kernel, matching the
    # matrix-kernel oracle on random elements
    g = alg_sub(unit(cycle3), delta_power(cycle3, 3))
    ZI = zi_closure(generated_ideal(cycle3, [g]))
    assert len(ZI.parts) == 1
    part = ZI.parts[0]
    assert type(part).__name__ == "PxLambdaIdeal"
    assert abs(complex(part.lam) - 1) < 1e-9
    for _ in range(30):
        a = random_member(part, rng, 2) if rng.random() < 0.5 \
            else random_element(cycle3, rng, 2)
        assert ideal_member(ZI, a) == rep_is_zero(
            rep_periodic(cycle3, pt(0), 1 + 0j, a), 1e-8)
    # canonical handles are fixed points
    Q = canonical_qx(cycle3, pt(0))
    ZQ = zi_closure(Q)
    for _ in range(20):
        a = random_member(Q, rng, 2) if rng.random() < 0.5 \
            else random_element(cycle3, rng, 2)
        assert ideal_member(ZQ, a) == ideal_member(Q, a)
    P = canonical_px_lambda(cycle3, pt(0), 1j)
    ZP = zi_closure(P)
    for _ in range(20):
        a = random_member(P, rng, 2) if rng.random() < 0.5 \
            else random_element(cycle3, rng, 2)
        assert ideal_member(ZP, a) == ideal_member(P, a)


def test_galois_laws_for_zeros(cycle3, shift_union_cycle3, rng):
    # zeros(ideal(zeros(I))) = zeros(I) via membership probes
    for sys in (cycle3, shift_union_cycle3):
        from crossedprod.sampling import canonical_handles
        for I in canonical_handles(sys, lam_values=(1 + 0j, 1j)):
            Z = zeros_of_ideal(I)
            Z2 = zeros_of_ideal(ideal_of_torus_set(Z))
            probes = [e.point for e in Z.entries] + [e.point for e in Z2.entries]
            for x in probes:
                for k in range(8):
                    mu = cmath.exp(2j * math.pi * k / 8)
                    assert torus_contains(Z, x, mu) == torus_contains(Z2, x, mu)


def test_zeros_nonempty_reports(cycle3):
    g = alg_sub(unit(cycle3), delta_power(cycle3, 3))
    rep = zeros_nonempty_report(generated_ideal(cycle3, [g]))
    assert rep.nonempty
    x, mu = rep.witness
    assert abs(mu ** 3 - 1) < 1e-8
    # the trivial ideal has full zero set
    rep0 = zeros_nonempty_report(generated_ideal(cycle3, []))
    assert rep0.nonempty
    # everything: generated by the unit -> empty zero set
    rep1 = zeros_nonempty_report(generated_ideal(cycle3, [unit(cycle3)]))
    assert not rep1.nonempty
    assert torus_is_empty(rep1.zeros)


def test_zeros_of_badly_behaved_avoid_aperiodic_part(shift_union_cycle3):
    # on a mixed system the torus-parameter kernels live over the periodic
    # component only
    U = shift_union_cycle3
    Z = zeros_of_ideal(canonical_px_lambda(U, pt(0, 1), 1j))
    for e in Z.entries:
        assert e.point.path == (1,)
    assert not torus_contains(Z, pt(0, 0), 1j)
    assert not torus_contains(Z, pt(INF, 0), 1j)


def test_adjoint_zeros_equal_cases(cycle3, rng):
    g = alg_sub(unit(cycle3), delta_power(cycle3, 3))
    assert adjoint_zeros_equal(generated_ideal(cycle3, [g]))
    # non-self-adjoint generator: f * delta
    f = finite_func(cycle3, (1 + 0j, 2 + 0j, 0j))
    I = generated_ideal(cycle3, [alg_mul(from_func(f), delta_power(cycle3, 1))])
    assert adjoint_zeros_equal(I)
    for _ in range(10):
        gens = [random_element(cycle3, rng, 2) for _ in range(rng.randint(1, 2))]
        assert adjoint_zeros_equal(generated_ideal(cycle3, gens))


def test_order_reflection_for_fixed_points(cycle3, rng):
    # containment in a synthesized-closure fixed point is seen on zero sets
    from crossedprod.sampling import canonical_handles
    I = canonical_qx(cycle3, pt(0))
    ZI = zeros_of_ideal(I)
    for J in canonical_handles(cycle3, lam_values=(1 + 0j, 1j)):
        ZJ = zeros_of_ideal(J)
        # J <= I iff zeros(J) >= zeros(I)
        lhs = ideal_leq(J, I)
        rhs = all(
            torus_contains(ZJ, e.point, mu)
            for e in ZI.entries
            for mu in (lamset_roots(e.lamset) or
                       [cmath.exp(2j * math.pi * k / 8) for k in range(8)])
        )
        assert lhs == rhs


def test_aperiodic_zero_forces_orbit_closure_kernel(shift, rng):
    # one zero over an aperiodic point spreads to its whole circle fibre and
    # forces containment in the orbit-closure kernel: for the shift this
    # means all generators must vanish identically
    Px0 = canonical_px(shift, pt(0))
    from crossedprod.algebra import zero_element
    batches = [[random_element(shift, rng, 2)] for _ in range(8)]
    batches.append([zero_element(shift)])  # the only way to vanish everywhere
    for gens in batches:
        Z = zeros_of_ideal(generated_ideal(shift, gens))
        hit = any(e.point.coord == 0 for e in Z.entries)
        assert hit == all(ideal_member(Px0, g) for g in gens)
        if hit:
            # the whole circle fibre over the aperiodic point is present
            for k in range(8):
                mu = cmath.exp(2j * math.pi * k / 8)
                assert torus_contains(Z, pt(0), mu)


def test_rotation_generated_unsupported(golden_rotation):
    from crossedprod.dynsys import RotationSystem
    from fractions import Fraction
    rat = RotationSystem(Fraction(1, 3), irrational=False)
    g = unit(rat)
    with pytest.raises(UnsupportedQueryError):
        zeros_of_ideal(generated_ideal(rat, [g]))
    # irrational rotation: supported, gens vanish nowhere -> empty zeros
    I = generated_ideal(golden_rotation, [unit(golden_rotation)])
    assert torus_is_empty(zeros_of_ideal(I))


def test_torus_contains_refuses_a_point_of_another_system(cycle3, shift_union_cycle3,
                                                          rational_rotation):
    # the query point is checked like the entries' points: a point with no
    # union path, a component index out of range, a coordinate off the
    # finite system and a point of another model are refused, not answered
    from crossedprod.errors import SystemMismatchError
    cases = [(shift_union_cycle3, pt(0, 1), [pt(0), pt(0, 5), pt(7, 1)]),
             (cycle3, pt(0), [pt(7)]),
             (rational_rotation, pt(0), [pt(INF), pt(0, 1)])]
    for system, x, bad in cases:
        Z = zeros_of_ideal(canonical_qx(system, x))
        assert torus_contains(Z, x, 1j)
        for y in bad:
            with pytest.raises(SystemMismatchError):
                torus_contains(Z, y, 1)


def test_ideal_leq_refuses_handles_on_two_systems(cycle3, swap_fix):
    # the membership oracles would read the generator's coefficients at the
    # other system's points and answer
    from crossedprod.errors import SystemMismatchError
    I = generated_ideal(cycle3, [parse_elem("1 - d^3", cycle3, False)])
    for J in (canonical_px_lambda(swap_fix, pt(2), 1 + 0j),
              canonical_px_lambda(swap_fix, pt(0), 1 + 0j)):
        with pytest.raises(SystemMismatchError, match="different systems"):
            ideal_leq(I, J)
        with pytest.raises(SystemMismatchError):
            ideal_leq(J, I)


def test_ideal_member_via_S_takes_an_exact_element(cycle3, rng):
    """The test family is built in the element's mode, so an exact element
    is answered, in agreement with the synthesized ideal."""
    a = parse_elem("1 - d^3", cycle3, exact=True)
    T = zeros_of_ideal(generated_ideal(cycle3, [a]))
    assert ideal_member_via_S(T, a)
    I = ideal_of_torus_set(T)
    for _ in range(12):
        b = random_element(cycle3, rng, 2, exact=True)
        if rng.random() < 0.5:
            b = alg_mul(a, b)
        assert ideal_member_via_S(T, b) == ideal_member(I, b), b


def test_ideal_member_via_S_on_a_union(shift_union_cycle3, rng):
    """The window reads the shift part's exceptional integers through the
    union; the answers agree with the synthesized ideal."""
    U = shift_union_cycle3
    I = parse_ideal("meet(Px(c0:0), Pxl(c1:0, 1))", U)
    T = zeros_of_ideal(I)
    S = ideal_of_torus_set(T)
    answers = []
    for _ in range(16):
        a = random_member(I, rng, 1) if rng.random() < 0.5 else random_element(U, rng, 1)
        answers.append(ideal_member_via_S(T, a))
        assert answers[-1] == ideal_member(S, a), a
    assert True in answers and False in answers


def test_tilde_member_on_a_full_circle_entry(shift, rng):
    """A full-circle entry asks every coefficient to vanish on the closure."""
    I = canonical_px(shift, pt(0))
    T = zeros_of_ideal(I)
    assert repr(T) == "t[0*: full]"
    for _ in range(8):
        assert tilde_member(T, random_member(I, rng, 2))
    assert not tilde_member(T, unit(shift))
    assert not tilde_member(T, parse_elem("sh{inf:0,3:1}*d", shift))


CONJ = {"1": "1", "-1": "-1", "i": "-i", "3/5+4/5i": "3/5-4/5i"}  # exact lam: conj(lam)


def _lambda_set_family(seed: int, count: int):
    """Two generators (1 - conj(lam) d^3) c_i(d^3) with a planted exact lam,
    each c_i with 4 to 9, 13 or 17 coefficients a/b, a in [-9, 9], b in [1, 5]."""
    rng = random.Random(seed)
    for _ in range(count):
        lam = rng.choice(list(CONJ))
        gens = []
        for _ in range(2):
            n = rng.choice((4, 5, 6, 7, 8, 9, 13, 17))
            terms = [f"({rng.randint(-9, 9)}/{rng.randint(1, 5)})*d^{3 * k}" for k in range(n)]
            gens.append(f"(1 - ({CONJ[lam]})*d^3)*({' + '.join(terms)})")
        yield gens


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_exact_lambda_sets_keep_every_common_root(cycle3, seed):
    """Exact generators take an exact gcd: when every generator lies in
    Pxl(0, lam), each cube root of lam is in the zero set at 0.  The
    oracle is membership, which goes through no gcd."""
    for texts in _lambda_set_family(seed, 40):
        gens = [parse_elem(t, cycle3, exact=True) for t in texts]
        Z = zeros_of_ideal(generated_ideal(cycle3, gens))
        for text in CONJ:
            J = canonical_px_lambda(cycle3, pt(0), parse_scalar_text(text, True))
            if all(ideal_member(J, g) for g in gens):
                for mu in pth_roots(J.lam, 3):
                    assert torus_contains(Z, pt(0), mu), (texts, text, Z)


def test_a_long_common_factor_keeps_the_cube_roots_in_exact_mode():
    A = ("(1 - d^3)*(-1 + (1/2)*d^3 + (-4/5)*d^6 + (1/2)*d^9 + (-2/5)*d^15"
         " + (-5/2)*d^18 + (-2/5)*d^21 + (-5/2)*d^24)")
    B = "(1 - d^3)*(-5 + (3/5)*d^3 + 3*d^6 + 8*d^9 + d^12)"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_command(["--config", str(DATA / "cycle3_exact.cfg"), "zeros",
                            "--ideal", f"gen({A}, {B})"])
    assert code == 0
    assert buf.getvalue().splitlines()[:2] == ["t[0: poly{-1,0,0,1}]", "nonempty"]


def test_exact_lambda_sets_print_exact_coefficients(cycle3):
    a = parse_elem("1 - 2*d^3", cycle3, exact=True)
    Z = zeros_of_ideal(generated_ideal(cycle3, [a, alg_mul(a, a)]))
    assert repr(Z) == "t[0: poly{-1/2,0,0,1}]"
    assert lamset_roots(Z.entries[0].lamset) == []  # the roots have modulus 2^(-1/3)
