"""Named property suites runnable from the command line.

Each suite takes the configured system, a seed and a tolerance, runs a
fixed battery of randomized law checks, and returns a report; the command
line maps failed reports to a nonzero exit code.
"""

from __future__ import annotations

import random

from . import scalars as sc
from .algebra import (
    alg_add, alg_adj, alg_mul, alg_norm, delta_power, dual_action,
    dual_average, elem_close, expectation, from_func, unit,
)
from .errors import UnsupportedQueryError
from .galois import (
    CheckReport, Tally, check_assumption, check_fixed_point_laws, check_min_max,
    check_order_reflection, check_three_maps, classical_pair,
    hull_kernel_pair, zeros_synth_pair,
)
from .reps_ideals import ideal_inclusion, ideal_member, rep_is_zero, rep_periodic
from .sampling import (
    canonical_handles, random_element, random_func, random_member,
    random_unimodular,
)
from .transform import zeros_of_ideal


def suite_algebra_axioms(system, exact: bool, seed: int, tol: float,
                         rounds: int = 60) -> CheckReport:
    rng = random.Random(seed)
    t = Tally("algebra.axioms")
    one = unit(system, exact)
    for _ in range(rounds):
        a = random_element(system, rng, 3, exact)
        b = random_element(system, rng, 3, exact)
        c = random_element(system, rng, 3, exact)
        t.check(elem_close(alg_mul(alg_mul(a, b), c), alg_mul(a, alg_mul(b, c)), tol),
                "associativity")
        t.check(elem_close(alg_mul(a, alg_add(b, c)), alg_add(alg_mul(a, b), alg_mul(a, c)), tol),
                "distributivity")
        t.check(elem_close(alg_mul(one, a), a, tol) and elem_close(alg_mul(a, one), a, tol),
                "unit")
        t.check(elem_close(alg_adj(alg_mul(a, b)), alg_mul(alg_adj(b), alg_adj(a)), tol),
                "involution anti-multiplicativity")
        t.check(not alg_norm(alg_mul(a, b)) > alg_norm(a) * alg_norm(b) + tol,
                "submultiplicativity")
        t.check(not abs(alg_norm(alg_adj(a)) - alg_norm(a)) > tol, "adjoint isometry")
    return t.report()


def _close(f, g, tol: float) -> bool:
    """Whether f - g vanishes within tol."""
    return elem_close(from_func(f), from_func(g), tol)


def suite_expectation(system, exact: bool, seed: int, tol: float,
                      rounds: int = 60) -> CheckReport:
    rng = random.Random(seed)
    t = Tally("expectation.laws")
    for _ in range(rounds):
        a = random_element(system, rng, 3, exact)
        f = random_func(system, rng, exact)
        g = random_func(system, rng, exact)
        lhs = expectation(alg_mul(alg_mul(from_func(f), a), from_func(g)))
        rhs = system.mul(system.mul(f, g), expectation(a))
        t.check(_close(lhs, rhs, tol), "two-sided function multiplication")
        d = delta_power(system, 1, exact)
        dinv = delta_power(system, -1, exact)
        lhs2 = expectation(alg_mul(alg_mul(d, a), dinv))
        t.check(_close(lhs2, system.compose_sigma(expectation(a), -1), tol),
                "conjugation by the shift generator")
        star = alg_mul(alg_adj(a), a)
        got = expectation(star)
        want = system.const(sc.zero_like(exact))
        for n, fn in a.coeffs.items():
            shifted = system.compose_sigma(fn, n)
            want = system.add(want, system.mul(system.conj(shifted), shifted))
        t.check(_close(got, want, max(tol, 1e-8)), "positive square formula")
        t.check(not alg_norm(from_func(expectation(a))) > alg_norm(a) + tol, "contractivity")
    return t.report()


def suite_reps_kernel(system, exact: bool, seed: int, tol: float,
                      rounds: int = 40) -> CheckReport:
    rng = random.Random(seed)
    t = Tally("reps.kernel")
    # the badly behaved canonical handles are exactly the Pxl kernels
    handles = [h for h in canonical_handles(system, exact=exact) if h.behaviour(tol).kind == "bad"]
    for _ in range(rounds if handles else 0):
        I = rng.choice(handles)
        a = random_member(I, rng, 2, exact) if rng.random() < 0.5 \
            else random_element(system, rng, 2, exact)
        member = ideal_member(I, a, tol)
        mat = rep_is_zero(rep_periodic(system, I.x, I.lam, a), max(tol, 1e-8))
        t.check(member == mat, "membership and matrix kernel disagree on {!r}", I)
    return t.report()


def suite_dual_average(system, exact: bool, seed: int, tol: float,
                       rounds: int = 50) -> CheckReport:
    rng = random.Random(seed)
    t = Tally("dual.average")
    for _ in range(rounds):
        a = random_element(system, rng, 3, exact)
        M = 2 * a.support_radius() + 1 + rng.randint(0, 3)
        t.check(elem_close(dual_average(a, M), from_func(expectation(a)), 0.0 if exact else tol),
                "average beyond the support radius")
        lam = random_unimodular(rng, exact)
        t.check(not abs(alg_norm(dual_action(a, lam)) - alg_norm(a)) > max(tol, 1e-8),
                "dual action not isometric")
    return t.report()


def suite_inclusion_table(system, exact: bool, seed: int, tol: float,
                          samples: int = 25) -> CheckReport:
    rng = random.Random(seed)
    t = Tally("inclusion.table")
    handles = canonical_handles(system, exact=exact)
    for I in handles:
        for J in handles:
            predicted = ideal_inclusion(I, J)
            sampled = all(ideal_member(J, random_member(I, rng, 2, exact), tol)
                          for _ in range(samples))
            if predicted:
                t.check(sampled, "table says {!r} <= {!r} but a member escapes", I, J)
            else:  # sampling may miss a separating element; try harder before flagging
                t.check(not (sampled and all(ideal_member(J, random_member(I, rng, 3, exact), tol)
                                             for _ in range(4 * samples))),
                        "table denies {!r} <= {!r} but sampling agrees", I, J)
    return t.report()


def _galois_samples(system, kind: str, seed: int, count: int):
    rng = random.Random(seed)
    if kind == "hk":
        fams = [tuple(random_func(system, rng) for _ in range(rng.randint(1, 3)))
                for _ in range(count)]
        subs = [system.zero_set(random_func(system, rng), sc.DEFAULT_TOL)
                for _ in range(max(2, count // 2))]
        return classical_pair(system), fams, subs
    handles = canonical_handles(system)
    sets_inv = system.invariant_closed_sets()
    if kind == "HK":
        if sets_inv is None:
            raise UnsupportedQueryError("invariant sets are not enumerable here")
        return hull_kernel_pair(system), handles, sets_inv
    tsets = [zeros_of_ideal(h) for h in handles]
    return zeros_synth_pair(system), handles, tsets


def suite_galois(system, kind: str, seed: int, count: int = 40) -> CheckReport:
    pair, a_samples, b_samples = _galois_samples(system, kind, seed, count)
    a_samples = list(a_samples)[:count]
    b_samples = list(b_samples)[:count]
    reports = [check(pair, a_samples, b_samples)
               for check in (check_assumption, check_three_maps, check_fixed_point_laws)]
    fixed = [pair.beta(pair.alpha(a)) for a in a_samples]
    for a in a_samples[: max(3, count // 8)]:
        reports += [check_min_max(pair, a, fixed),
                    check_order_reflection(pair, pair.beta(pair.alpha(a)), a_samples)]
    return CheckReport(f"galois.{kind}", sum(r.checked for r in reports),
                       sum((r.failures for r in reports), ()))


SUITES = {
    "algebra.axioms": suite_algebra_axioms,
    "expectation.laws": suite_expectation,
    "reps.kernel": suite_reps_kernel,
    "dual.average": suite_dual_average,
    "inclusion.table": suite_inclusion_table,
    "galois.hk": lambda system, exact, seed, tol: suite_galois(system, "hk", seed),
    "galois.HK": lambda system, exact, seed, tol: suite_galois(system, "HK", seed),
    "galois.ZI": lambda system, exact, seed, tol: suite_galois(system, "ZI", seed),
}
