"""Abstract hull-kernel framework as an instantiable property-checking kit.

A pair of order-reversing maps whose two compositions are extensive obeys a
small family of laws (triple composition collapse, idempotent closures,
image-equals-fixed-points, min/max characterisations, order reflection on
fixed points).  The kit checks those laws on sampled elements of any
concrete instantiation; equality is always derived from the two one-sided
comparisons, never from structural identity.
"""

from __future__ import annotations

from .errors import UnsupportedQueryError
from .hullkernel import hull
from .records import record
from .reps_ideals import kernel_ideal
from .scalars import DEFAULT_TOL
from .transform import (
    TorusSubset, ideal_leq, ideal_of_torus_set, lamset_contains, lamset_roots, zeros_of_ideal,
)


@record(eq=False)
class GaloisPair:
    """Two universes with comparison oracles and the connecting maps."""

    name: str
    alpha: object  # A -> B
    beta: object   # B -> A
    leq_a: object  # (a, a') -> bool
    leq_b: object


def eq_a(pair: GaloisPair, x, y) -> bool:
    return pair.leq_a(x, y) and pair.leq_a(y, x)


def eq_b(pair: GaloisPair, x, y) -> bool:
    return pair.leq_b(x, y) and pair.leq_b(y, x)


@record(eq=False)
class CheckReport:
    name: str
    ok: bool
    checked: int
    failures: tuple

    def merged_with(self, other: "CheckReport") -> "CheckReport":
        return CheckReport(self.name, self.ok and other.ok,
                           self.checked + other.checked,
                           self.failures + other.failures)


def _report(name, checked, failures):
    return CheckReport(name, not failures, checked, tuple(failures))


def check_assumption(pair: GaloisPair, a_samples, b_samples) -> CheckReport:
    """Extensivity of both compositions and order reversal of both maps."""
    failures = []
    checked = 0
    for a in a_samples:
        checked += 1
        if not pair.leq_a(a, pair.beta(pair.alpha(a))):
            failures.append(f"beta(alpha(a)) does not dominate a for a={a!r}")
    for b in b_samples:
        checked += 1
        if not pair.leq_b(b, pair.alpha(pair.beta(b))):
            failures.append(f"alpha(beta(b)) does not dominate b for b={b!r}")
    for a1 in a_samples:
        for a2 in a_samples:
            if pair.leq_a(a1, a2):
                checked += 1
                if not pair.leq_b(pair.alpha(a2), pair.alpha(a1)):
                    failures.append(f"alpha not order-reversing on ({a1!r}, {a2!r})")
    for b1 in b_samples:
        for b2 in b_samples:
            if pair.leq_b(b1, b2):
                checked += 1
                if not pair.leq_a(pair.beta(b2), pair.beta(b1)):
                    failures.append(f"beta not order-reversing on ({b1!r}, {b2!r})")
    return _report(f"{pair.name}: assumption", checked, failures)


def check_three_maps(pair: GaloisPair, a_samples, b_samples) -> CheckReport:
    """alpha.beta.alpha = alpha and beta.alpha.beta = beta on samples."""
    failures = []
    checked = 0
    for a in a_samples:
        checked += 1
        lhs = pair.alpha(pair.beta(pair.alpha(a)))
        if not eq_b(pair, lhs, pair.alpha(a)):
            failures.append(f"alpha.beta.alpha differs from alpha at {a!r}")
    for b in b_samples:
        checked += 1
        lhs = pair.beta(pair.alpha(pair.beta(b)))
        if not eq_a(pair, lhs, pair.beta(b)):
            failures.append(f"beta.alpha.beta differs from beta at {b!r}")
    return _report(f"{pair.name}: triple composition", checked, failures)


def check_fixed_point_laws(pair: GaloisPair, a_samples, b_samples) -> CheckReport:
    """Idempotence of both closures, image = fixed set, and the singleton
    preimage law among sampled fixed points."""
    failures = []
    checked = 0
    ba = lambda a: pair.beta(pair.alpha(a))
    ab = lambda b: pair.alpha(pair.beta(b))
    for a in a_samples:
        checked += 2
        if not eq_a(pair, ba(ba(a)), ba(a)):
            failures.append(f"beta.alpha not idempotent at {a!r}")
        # image point beta(alpha(a)) must be fixed (image = fixed set)
        if not eq_a(pair, ba(a), pair.beta(pair.alpha(ba(a)))):
            failures.append(f"image element not fixed at {a!r}")
    for b in b_samples:
        checked += 2
        if not eq_b(pair, ab(ab(b)), ab(b)):
            failures.append(f"alpha.beta not idempotent at {b!r}")
        if not eq_b(pair, ab(b), pair.alpha(pair.beta(ab(b)))):
            failures.append(f"image element not fixed at {b!r}")
    # singleton preimage: fixed elements mapping to alpha(a) equal beta(alpha(a))
    fixed = [ba(a) for a in a_samples]
    for a in a_samples:
        target = pair.alpha(a)
        expect = ba(a)
        for fp in fixed:
            if eq_b(pair, pair.alpha(fp), target):
                checked += 1
                if not eq_a(pair, fp, expect):
                    failures.append(
                        f"two distinct fixed points share the image of {a!r}"
                    )
    return _report(f"{pair.name}: fixed points", checked, failures)


def check_min_max(pair: GaloisPair, a, fixed_candidates) -> CheckReport:
    """beta(alpha(a)) is least among fixed candidates dominating a, and
    greatest among candidates with the same alpha image."""
    failures = []
    checked = 0
    m = pair.beta(pair.alpha(a))
    if not pair.leq_a(a, m):
        failures.append(f"closure does not dominate {a!r}")
    for c in fixed_candidates:
        checked += 1
        if pair.leq_a(a, c) and not pair.leq_a(m, c):
            failures.append(f"fixed candidate {c!r} dominates a but not the closure")
        if eq_b(pair, pair.alpha(c), pair.alpha(a)) and not pair.leq_a(c, m):
            failures.append(f"candidate {c!r} shares the image but exceeds the closure")
    return _report(f"{pair.name}: min/max", checked, failures)


def check_order_reflection(pair: GaloisPair, a, a_samples) -> CheckReport:
    """For a fixed point a: a' below a exactly when alpha(a') dominates
    alpha(a).  Non-fixed a are rejected."""
    failures = []
    checked = 0
    if not eq_a(pair, pair.beta(pair.alpha(a)), a):
        return _report(f"{pair.name}: order reflection", 1,
                       [f"{a!r} is not a fixed point of beta.alpha"])
    fa = pair.alpha(a)
    for ap in a_samples:
        checked += 1
        lhs = pair.leq_a(ap, a)
        rhs = pair.leq_b(fa, pair.alpha(ap))
        if lhs != rhs:
            failures.append(f"reflection fails at {ap!r}")
    return _report(f"{pair.name}: order reflection", checked, failures)


# ---------------------------------------------------------------------------
# Shipped instantiations


def classical_pair(system) -> GaloisPair:
    """The classical hull/kernel pair on the function model of a finite
    system: families of functions against subsets of the point set."""
    try:
        points = system.points()
    except UnsupportedQueryError:
        raise UnsupportedQueryError("the classical pair is shipped for finite systems") from None

    def common_zeros(funcs):
        acc = system.whole_space()
        for f in funcs:
            acc = system.intersect(acc, system.zero_set(f, DEFAULT_TOL))
        return acc

    def kernel_generators(S):
        gens = []
        for x in points:
            if not system.contains(S, x):
                gens.append(system.point_indicator(x, False))
        return tuple(gens)

    return GaloisPair(
        "classical hk",
        alpha=common_zeros,
        beta=kernel_generators,
        leq_a=lambda F, G: system.subset(common_zeros(G), common_zeros(F)),
        leq_b=system.subset,
    )


def hull_kernel_pair(system) -> GaloisPair:
    """Ideal handles against invariant closed subsets, with the hull and
    kernel operators of the function-space model."""
    return GaloisPair(
        "HK",
        alpha=lambda I: hull(I).subset,
        beta=lambda S: kernel_ideal(system, S),
        leq_a=ideal_leq,
        leq_b=system.subset,
    )


def zeros_synth_pair(system) -> GaloisPair:
    """Ideal handles against product-space subsets, with the zero-set and
    synthesized-ideal operators of the transform model."""
    return GaloisPair(
        "ZI",
        alpha=zeros_of_ideal,
        beta=ideal_of_torus_set,
        leq_a=ideal_leq,
        leq_b=lambda T1, T2: torus_leq(system, T1, T2),
    )


def torus_leq(system, T1: TorusSubset, T2: TorusSubset) -> bool:
    """Containment of stored product sets, entrywise on orbits."""
    for e in T1.entries:
        part = system.orbit_closure(e.point)
        try:
            probes = system.all_orbits_in(part)
        except UnsupportedQueryError:
            # cannot enumerate orbits: need one entry covering the whole part
            if not any(
                system.subset(part, system.orbit_closure(e2.point))
                and _lamset_subset(e.lamset, [e2.lamset])
                for e2 in T2.entries
            ):
                return False
            continue
        for x in probes:
            covering = [e2.lamset for e2 in T2.entries
                        if system.contains(system.orbit_closure(e2.point), x)]
            if not _lamset_subset(e.lamset, covering):
                return False
    return True


def _lamset_subset(ls, others) -> bool:
    roots = lamset_roots(ls)
    if roots is None:
        return any(o.roots is None for o in others)
    return all(any(lamset_contains(o, r) for o in others) for r in roots)
