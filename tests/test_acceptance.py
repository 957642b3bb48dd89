"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is either computed by an independent in-test oracle
(point evaluation, matrix products, closed-form means, exhaustive
enumeration) or asserted structurally; tolerances are fixed here and never
loosened at runtime.
"""

import cmath
import contextlib
import io
import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from crossedprod import scalars as sc
from crossedprod.algebra import (
    Element, alg_add, alg_adj, alg_mul, alg_norm, alg_sub,
    delta_power, dual_average, elem_close, elem_is_zero,
    expectation, from_func, unit,
)
from crossedprod.dynsys import (
    FiniteSet, FiniteSystem, RotationSystem, ShiftSystem, UnionSystem,
    orbit_points, pt,
    set_equal,
)
from crossedprod.funcspace import (
    f_algnorm, f_compose_sigma, f_conj, f_is_zero, f_mul, f_scale,
    f_sub, trig_poly, zero_func,
)
from crossedprod.galois import (
    check_assumption, check_fixed_point_laws, check_min_max,
    check_order_reflection, check_three_maps, classical_pair,
    hull_kernel_pair, zeros_synth_pair,
)
from crossedprod.hullkernel import (
    decompose_as_intersection, hull, hull_kernel_compose,
    kernel_hull_compose,
)
from crossedprod.parsing import parse_config, parse_elem, parse_ideal
from crossedprod.reps_ideals import (
    canonical_px, canonical_px_lambda, canonical_qx,
    escape_element, generated_ideal, ideal_behaviour, ideal_inclusion,
    ideal_member, intersection_ideal, kernel_ideal, rep_is_zero,
    rep_periodic,
)
from crossedprod.sampling import (
    canonical_handles, random_element, random_func, random_member,
)
from crossedprod.synthesis import drive_to_E
from crossedprod.transform import (
    FullCircle, adjoint_zeros_equal, ideal_of_torus_set, lamset_roots,
    torus_contains, zeros_of_ideal, zi_closure,
)

GOLDEN_THETA = (math.sqrt(5) - 1) / 2


def passline(n, text):
    print(f"[acceptance] criterion {n:2d}: PASS  {text}")


def models():
    return [
        ("finite", FiniteSystem(3, (1, 2, 0)), True),
        ("shift", ShiftSystem(), False),
        ("rotation", RotationSystem(__import__("crossedprod.dynsys",
                                               fromlist=["GOLDEN_CONJUGATE"]).GOLDEN_CONJUGATE), False),
    ]


def test_criterion_01_algebra_axioms():
    t0 = time.time()
    rng = random.Random(1)
    for name, system, exact in models():
        tol = 0.0 if exact else 1e-9
        one = unit(system, exact)
        pool = [random_element(system, rng, 4, exact, density=0.5)
                for _ in range(500)]
        for i in range(0, 498, 3):
            a, b, c = pool[i], pool[i + 1], pool[i + 2]
            assert elem_close(alg_mul(alg_mul(a, b), c),
                              alg_mul(a, alg_mul(b, c)), tol)
            assert elem_close(alg_mul(a, alg_add(b, c)),
                              alg_add(alg_mul(a, b), alg_mul(a, c)), tol)
            assert elem_close(alg_add(alg_mul(a, c), alg_mul(b, c)),
                              alg_mul(alg_add(a, b), c), tol)
            assert elem_close(alg_mul(one, a), a, tol)
            assert elem_close(alg_mul(a, one), a, tol)
            assert elem_close(alg_adj(alg_mul(a, b)),
                              alg_mul(alg_adj(b), alg_adj(a)), tol)
            assert alg_norm(alg_mul(a, b)) <= alg_norm(a) * alg_norm(b) + 1e-9
            assert abs(alg_norm(alg_adj(a)) - alg_norm(a)) <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds the 10s budget"
    passline(1, f"ring and involution axioms on 500 elements per model ({elapsed:.1f}s)")


def test_criterion_02_expectation_suite():
    rng = random.Random(2)
    cases = 0
    for name, system, exact in models():
        tol = 0.0 if exact else 1e-9
        d = delta_power(system, 1, exact)
        dinv = delta_power(system, -1, exact)
        for _ in range(67):
            cases += 1
            a = random_element(system, rng, 3, exact)
            f = random_func(system, rng, exact)
            g = random_func(system, rng, exact)
            lhs = expectation(alg_mul(alg_mul(from_func(f), a), from_func(g)))
            assert f_is_zero(f_sub(lhs, f_mul(f_mul(f, g), expectation(a))), tol)
            lhs2 = expectation(alg_mul(alg_mul(d, a), dinv))
            assert f_is_zero(f_sub(lhs2, f_compose_sigma(expectation(a), -1)), tol)
            got = expectation(alg_mul(alg_adj(a), a))
            want = zero_func(system, exact)
            from crossedprod.funcspace import f_add
            for n, fn in a.coeffs.items():
                sh = f_compose_sigma(fn, n)
                want = f_add(want, f_mul(f_conj(sh), sh))
            assert f_is_zero(f_sub(got, want), tol if exact else 1e-8)
            assert alg_norm(from_func(expectation(a))) <= alg_norm(a) + 1e-9
            if not elem_is_zero(a, 1e-12):
                assert not f_is_zero(expectation(alg_mul(alg_adj(a), a)), 0.0 if exact else 1e-12)
    assert cases >= 200
    passline(2, f"zero-coefficient projection identities in {cases} cases")


def test_criterion_03_rep_kernel_equivalence():
    system = FiniteSystem(11, (0, 2, 1, 4, 5, 3, 7, 8, 9, 10, 6))
    reps = [pt(0), pt(1), pt(3), pt(6)]  # periods 1, 2, 3, 5
    lams = [sc.qc(1), sc.qc(-1), sc.QComplex(Fraction(0), Fraction(1)),
            sc.QComplex(Fraction(0), Fraction(-1)),
            sc.rational_circle_point(Fraction(1, 2)),
            sc.rational_circle_point(Fraction(-1, 2)),
            sc.rational_circle_point(Fraction(1, 3)),
            sc.rational_circle_point(Fraction(3, 1))]
    rng = random.Random(3)
    count = 0
    for x in reps:
        for lam in lams:
            I = canonical_px_lambda(system, x, lam)
            for _ in range(25):
                count += 1
                if rng.random() < 0.5:
                    a = random_member(I, rng, 2, exact=True)
                else:
                    a = random_element(system, rng, 2, exact=True)
                member = ideal_member(I, a, 0.0)
                matrix = rep_is_zero(rep_periodic(system, x, lam, a), 0.0)
                assert member == matrix
    assert count >= 800
    passline(3, f"membership equals matrix kernel, {count} exact cases, 8 parameters")


def test_criterion_04_qx_intersection_over_roots():
    system = FiniteSystem(3, (1, 2, 0))
    x = pt(0)
    Qx = canonical_qx(system, x)
    rng = random.Random(4)
    for i in range(200):
        a = random_member(Qx, rng, 3, exact=True) if i % 2 == 0 \
            else random_element(system, rng, 3, exact=True)
        N = a.support_radius()
        order = 2 * N + 1
        over_roots = all(
            ideal_member(canonical_px_lambda(
                system, x, cmath.exp(2j * math.pi * k / order)), a, 1e-9)
            for k in range(order)
        )
        assert over_roots == ideal_member(Qx, a, 0.0)
    passline(4, "whole-orbit kernel equals the root-of-unity intersection, 200 cases")


def _table_systems():
    perm23 = FiniteSystem(5, (1, 0, 3, 4, 2))
    shift = ShiftSystem()
    return [perm23, shift, UnionSystem((shift, perm23))]


def test_criterion_05_inclusion_table():
    rng = random.Random(5)
    discrepancies = 0
    pairs = 0
    for system in _table_systems():
        handles = canonical_handles(system, lam_values=(1 + 0j, 1j))
        for I in handles:
            for J in handles:
                pairs += 1
                predicted = ideal_inclusion(I, J)
                sampled = True
                for k in range(100):
                    m = random_member(I, rng, 2)
                    if not ideal_member(J, m, 1e-9):
                        sampled = False
                        break
                if predicted != sampled:
                    discrepancies += 1
    assert discrepancies == 0
    passline(5, f"inclusion table matches sampled membership on {pairs} pairs")


def test_criterion_06_plain_ideal_witness():
    cycle3 = FiniteSystem(3, (1, 2, 0))
    U = UnionSystem((ShiftSystem(), cycle3))
    x1 = pt(0, 0)           # aperiodic integer in the shift component
    x2 = pt(0, 1)           # periodic point in the cycle
    lam = sc.qc(1)
    from crossedprod.dynsys import orbit_closure
    from crossedprod.funcspace import separating_func
    f = separating_func(U, orbit_closure(U, x1), x2, exact=True)
    a = escape_element(f, lam, 3)
    P1 = canonical_px(U, x1)
    P2 = canonical_px_lambda(U, x2, lam)
    both = intersection_ideal(U, [P1, P2])
    assert ideal_member(both, a, 0.0)
    assert not ideal_member(P2, from_func(f), 0.0)
    assert not ideal_member(both, from_func(f), 0.0)
    rep = ideal_behaviour(both)
    assert rep.kind == "plain"
    passline(6, "plain intersection witness verified exactly on the mixed system")


def test_criterion_07_function_model_operator_laws():
    # exhaustive hull-kernel identity over every permutation on <= 6 points
    checked_sets = 0
    for n in range(1, 7):
        for sigma in itertools.permutations(range(n)):
            system = FiniteSystem(n, sigma)
            for S in system.invariant_closed_sets():
                assert set_equal(system, hull_kernel_compose(system, S), S)
                checked_sets += 1
    # kernel-hull grows, and fixes exactly the well behaved handles
    rng = random.Random(7)
    cycle3 = FiniteSystem(3, (1, 2, 0))
    U = UnionSystem((ShiftSystem(), cycle3))
    for system in (cycle3, U):
        for I in canonical_handles(system, lam_values=(1 + 0j, 1j)):
            KH = kernel_hull_compose(I)
            well = not I.__class__.__name__.startswith("PxLambda")
            for _ in range(20):
                m = random_member(I, rng, 2)
                assert ideal_member(KH, m, 1e-9)
            if well:
                for _ in range(20):
                    a = random_member(KH, rng, 2)
                    assert ideal_member(I, a, 1e-9)
            else:
                assert ideal_member(KH, unit(system), 1e-9)
                assert not ideal_member(I, unit(system), 1e-9)
    # decomposition of kernel ideals: joint membership equals membership
    count = 0
    for S in U.invariant_closed_sets():
        K = kernel_ideal(U, S)
        joint = intersection_ideal(U, decompose_as_intersection(U, S))
        for _ in range(34):
            count += 1
            a = random_member(K, rng, 2) if rng.random() < 0.5 \
                else random_element(U, rng, 2)
            assert ideal_member(K, a, 1e-9) == ideal_member(joint, a, 1e-9)
    assert count >= 200
    passline(7, f"hull/kernel laws: {checked_sets} exhaustive sets, decomposition on {count} elements")


def test_criterion_08_transform_model_operator_laws():
    rng = random.Random(8)
    cycle3 = FiniteSystem(3, (1, 2, 0))
    # closed form of the torus-parameter kernel zero set, exact roots
    lam = cmath.exp(2j * math.pi * 0.37)
    Z = zeros_of_ideal(canonical_px_lambda(cycle3, pt(0), lam))
    roots = sorted(lamset_roots(Z.entries[0].lamset),
                   key=lambda z: cmath.phase(z) % (2 * math.pi))
    want = sorted((cmath.exp(1j * (cmath.phase(lam) + 2 * math.pi * k) / 3)
                   for k in range(3)), key=lambda z: cmath.phase(z) % (2 * math.pi))
    assert len(roots) == 3
    for g, w in zip(roots, want):
        assert abs(g - w) < 1e-12
    ZQ = zeros_of_ideal(canonical_qx(cycle3, pt(0)))
    assert isinstance(ZQ.entries[0].lamset, FullCircle)
    # triple composition laws via membership probes on canonical handles
    for system in (cycle3, UnionSystem((ShiftSystem(), cycle3))):
        for I in canonical_handles(system, lam_values=(1 + 0j, 1j)):
            Z1 = zeros_of_ideal(I)
            Z2 = zeros_of_ideal(ideal_of_torus_set(Z1))
            probes = [e.point for e in Z1.entries + Z2.entries]
            for x in probes:
                for k in range(8):
                    mu = cmath.exp(2j * math.pi * k / 8)
                    assert torus_contains(Z1, x, mu) == torus_contains(Z2, x, mu)
            J1 = ideal_of_torus_set(Z1)
            J2 = ideal_of_torus_set(zeros_of_ideal(J1))
            for _ in range(10):
                a = random_member(J1, rng, 2)
                assert ideal_member(J2, a, 1e-9)
                b = random_member(J2, rng, 2)
                assert ideal_member(J1, b, 1e-9)
    # intersection recovery against the matrix-kernel oracle
    perm1235 = FiniteSystem(11, (0, 2, 1, 4, 5, 3, 7, 8, 9, 10, 6))
    for x, p in ((pt(0), 1), (pt(1), 2), (pt(3), 3), (pt(6), 5)):
        g = alg_sub(unit(perm1235), delta_power(perm1235, p))
        ZI = zi_closure(generated_ideal(perm1235, [g]))
        target = [q for q in ZI.parts if q.x in orbit_points(perm1235, x)]
        assert any(abs(complex(q.lam) - 1) < 1e-9 for q in target)
        for _ in range(15):
            a = random_member(canonical_px_lambda(perm1235, x, 1 + 0j), rng, 2) \
                if rng.random() < 0.5 else random_element(perm1235, rng, 2)
            member = all(ideal_member(q, a, 1e-8) for q in target)
            matrix = rep_is_zero(rep_periodic(perm1235, x, 1 + 0j, a), 1e-8)
            assert member == matrix or not matrix
            if member:
                assert matrix
    # adjoint symmetry of zero sets on 50 random generated ideals
    perm23 = FiniteSystem(5, (1, 0, 3, 4, 2))
    for i in range(50):
        system = cycle3 if i % 2 == 0 else perm23
        gens = [random_element(system, rng, 2) for _ in range(rng.randint(1, 2))]
        assert adjoint_zeros_equal(generated_ideal(system, gens),
                                   grid_order=64, tol=1e-8)
    passline(8, "zero-set laws, recovery oracle, and adjoint symmetry verified")


def _hk_sample_family(system, lam_grid):
    handles = list(canonical_handles(system, lam_values=lam_grid))
    sets = system.invariant_closed_sets()
    handles.extend(kernel_ideal(system, S) for S in sets)
    extra = []
    for i in range(0, len(handles) - 1, 2):
        extra.append(intersection_ideal(system, [handles[i], handles[i + 1]]))
    return handles + extra, sets


def test_criterion_09_abstract_framework():
    rng = random.Random(9)
    cycle3 = FiniteSystem(3, (1, 2, 0))
    perm23 = FiniteSystem(5, (1, 0, 3, 4, 2))
    lam_grid = tuple(cmath.exp(2j * math.pi * k / 8) for k in range(8))
    total = 0
    # classical pair on the function models of finite systems
    for system in (cycle3, perm23):
        pair = classical_pair(system)
        fams = [tuple(random_func(system, rng) for _ in range(rng.randint(1, 3)))
                for _ in range(50)]
        subs = [FiniteSet(frozenset(s))
                for r in range(system.size + 1)
                for s in itertools.combinations(range(system.size), r)]
        assert check_assumption(pair, fams, subs).ok
        assert check_three_maps(pair, fams, subs).ok
        assert check_fixed_point_laws(pair, fams, subs).ok
        fixed = [pair.beta(S) for S in subs]  # exhaustive fixed points
        for fam in fams[:10]:
            assert check_min_max(pair, fam, fixed).ok
            assert check_order_reflection(pair, pair.beta(pair.alpha(fam)), fams).ok
        total += len(fams)
    # the two operator pairs on ideals
    for system in (cycle3, perm23, UnionSystem((ShiftSystem(), cycle3))):
        handles, sets = _hk_sample_family(system, lam_grid)
        pair = hull_kernel_pair(system)
        assert check_assumption(pair, handles, sets).ok
        assert check_three_maps(pair, handles, sets).ok
        assert check_fixed_point_laws(pair, handles, sets).ok
        fixed = [pair.beta(S) for S in sets]  # exhaustive: all kernel ideals
        for I in handles[:8]:
            assert check_min_max(pair, I, fixed).ok
            assert check_order_reflection(pair, pair.beta(pair.alpha(I)), handles).ok
        zpair = zeros_synth_pair(system)
        tsets = [zeros_of_ideal(h) for h in handles]
        assert check_assumption(zpair, handles, tsets).ok
        assert check_three_maps(zpair, handles, tsets).ok
        assert check_fixed_point_laws(zpair, handles, tsets).ok
        zfixed = [zpair.beta(zpair.alpha(h)) for h in handles]
        for I in handles[:6]:
            assert check_min_max(zpair, I, zfixed).ok
            assert check_order_reflection(zpair, zpair.beta(zpair.alpha(I)), handles).ok
        total += len(handles)
    assert total >= 100
    passline(9, f"abstract laws hold on all three instantiations ({total} samples)")


def test_criterion_10_averaging():
    t0 = time.time()
    rng = random.Random(10)
    from crossedprod.dynsys import GOLDEN_CONJUGATE
    rot = RotationSystem(GOLDEN_CONJUGATE)

    def unit_wiener_coeff():
        f = random_func(rot, rng)
        norm = f_algnorm(f)
        return f_scale(1.0 / norm, f)

    def dirichlet(order, xfrac):
        s = math.sin(math.pi * xfrac)
        if abs(s) < 1e-14:
            return 1.0
        return abs(math.sin(math.pi * order * xfrac) / (order * s))

    for _ in range(5):
        coeffs = {n: unit_wiener_coeff() for n in range(-3, 4) if rng.random() < 0.7}
        coeffs[1] = unit_wiener_coeff()
        a = Element(rot, coeffs)
        rep = drive_to_E(a, 0.05, 12)  # orders 2 .. 4096
        assert rep.reached
        assert max(o for o, _ in rep.rounds) <= 4096
        # certify against the closed-form damping product
        expected = 0.0
        for n, f in a.coeffs.items():
            if n == 0:
                continue
            prod = 1.0
            order = 2
            for _ in range(len(rep.rounds) - 1):
                prod *= dirichlet(order, n * GOLDEN_THETA)
                order *= 2
            expected += prod * f_algnorm(f)
        assert rep.final_residual == pytest.approx(expected, rel=1e-6, abs=1e-9)
    # negative control: rational angle, resonant frequency stalls
    rot3 = RotationSystem(Fraction(1, 3), irrational=False)
    a = Element(rot3, {3: trig_poly(rot3, {0: 1 + 0j}),
                       1: trig_poly(rot3, {0: 1 + 0j})})
    rep = drive_to_E(a, 0.05, 10)
    assert not rep.reached
    assert rep.damping[3] == pytest.approx(1.0, abs=1e-12)
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds the 5s budget"
    passline(10, f"averaging reaches 0.05 within order 4096; rational control stalls ({elapsed:.1f}s)")


def test_criterion_11_dual_average_discretisation():
    rng = random.Random(11)
    cases = 0
    for name, system, exact in models():
        for _ in range(67):
            cases += 1
            a = random_element(system, rng, 3, exact)
            M = 2 * a.support_radius() + 1 + rng.randint(0, 2)
            got = dual_average(a, M)
            want = from_func(expectation(a))
            assert set(got.coeffs) == set(want.coeffs)
            for n in got.coeffs:
                assert got.coeffs[n] == want.coeffs[n]
    assert cases >= 200
    passline(11, f"dual-action average collapses to the projection exactly, {cases} cases")


def test_criterion_12_cli_goldens_and_fuzz():
    import sys
    sys.path.insert(0, str(Path(__file__).parent))
    from cli_cases import CASES
    from crossedprod.cli import run_command
    data = Path(__file__).parent / "data"
    golden = Path(__file__).parent / "golden"
    for name, cfg, tail in CASES:
        pre = ["--config", str(data / cfg), "--seed", "1"]
        argv = pre + (["--records"] + tail[1:] if tail and tail[0] == "--records" else tail)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run_command(argv)
        assert code == 0
        assert buf.getvalue() == (golden / f"{name}.txt").read_text(encoding="utf-8"), name
    # parser fuzz: ten thousand random strings, error or success only
    from crossedprod.errors import CrossedProdError
    rng = random.Random(12)
    system = FiniteSystem(3, (1, 2, 0))
    alphabet = "dfE(){}[]+-*^:,;ui0123456789./ adjshtpPxlQKmeengcinfsystemmode"
    for i in range(10_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 36)))
        try:
            if i % 3 == 0:
                parse_elem(text, system, exact=(i % 2 == 0))
            elif i % 3 == 1:
                parse_ideal(text, system)
            else:
                parse_config(text)
        except CrossedProdError:
            pass
        except RecursionError:
            pass
    passline(12, "golden outputs byte-exact; 10000 fuzzed inputs, no crashes")
