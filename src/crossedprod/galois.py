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
    checked: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


class Tally:
    """One law check's count and failure lines; a line is formatted only
    when its check fails."""

    def __init__(self, name: str):
        self.name, self.checked, self.failures = name, 0, []

    def check(self, ok, failure: str, *args, counted: bool = True) -> None:
        """Count one check (none when not counted: a further condition of the
        check just counted); on failure add ``failure.format(*args)``."""
        self.checked += counted
        if not ok:
            self.failures.append(failure.format(*args))

    def report(self) -> CheckReport:
        return CheckReport(self.name, self.checked, tuple(self.failures))


def check_assumption(pair: GaloisPair, a_samples, b_samples) -> CheckReport:
    """Extensivity of both compositions and order reversal of both maps."""
    t = Tally(f"{pair.name}: assumption")
    for a in a_samples:
        t.check(pair.leq_a(a, pair.beta(pair.alpha(a))),
                "beta(alpha(a)) does not dominate a for a={!r}", a)
    for b in b_samples:
        t.check(pair.leq_b(b, pair.alpha(pair.beta(b))),
                "alpha(beta(b)) does not dominate b for b={!r}", b)
    for a1 in a_samples:
        for a2 in a_samples:
            if pair.leq_a(a1, a2):
                t.check(pair.leq_b(pair.alpha(a2), pair.alpha(a1)),
                        "alpha not order-reversing on ({!r}, {!r})", a1, a2)
    for b1 in b_samples:
        for b2 in b_samples:
            if pair.leq_b(b1, b2):
                t.check(pair.leq_a(pair.beta(b2), pair.beta(b1)),
                        "beta not order-reversing on ({!r}, {!r})", b1, b2)
    return t.report()


def check_three_maps(pair: GaloisPair, a_samples, b_samples) -> CheckReport:
    """alpha.beta.alpha = alpha and beta.alpha.beta = beta on samples."""
    t = Tally(f"{pair.name}: triple composition")
    for a in a_samples:
        t.check(eq_b(pair, pair.alpha(pair.beta(pair.alpha(a))), pair.alpha(a)),
                "alpha.beta.alpha differs from alpha at {!r}", a)
    for b in b_samples:
        t.check(eq_a(pair, pair.beta(pair.alpha(pair.beta(b))), pair.beta(b)),
                "beta.alpha.beta differs from beta at {!r}", b)
    return t.report()


def check_fixed_point_laws(pair: GaloisPair, a_samples, b_samples) -> CheckReport:
    """Idempotence of both closures, image = fixed set, and the singleton
    preimage law among sampled fixed points."""
    t = Tally(f"{pair.name}: fixed points")
    ba = lambda a: pair.beta(pair.alpha(a))
    ab = lambda b: pair.alpha(pair.beta(b))
    for a in a_samples:
        t.check(eq_a(pair, ba(ba(a)), ba(a)), "beta.alpha not idempotent at {!r}", a)
        # image point beta(alpha(a)) must be fixed (image = fixed set)
        t.check(eq_a(pair, ba(a), pair.beta(pair.alpha(ba(a)))),
                "image element not fixed at {!r}", a)
    for b in b_samples:
        t.check(eq_b(pair, ab(ab(b)), ab(b)), "alpha.beta not idempotent at {!r}", b)
        t.check(eq_b(pair, ab(b), pair.alpha(pair.beta(ab(b)))),
                "image element not fixed at {!r}", b)
    # singleton preimage: fixed elements mapping to alpha(a) equal beta(alpha(a))
    fixed = [ba(a) for a in a_samples]
    for a in a_samples:
        target = pair.alpha(a)
        expect = ba(a)
        for fp in fixed:
            if eq_b(pair, pair.alpha(fp), target):
                t.check(eq_a(pair, fp, expect),
                        "two distinct fixed points share the image of {!r}", a)
    return t.report()


def check_min_max(pair: GaloisPair, a, fixed_candidates) -> CheckReport:
    """beta(alpha(a)) is least among fixed candidates dominating a, and
    greatest among candidates with the same alpha image.  Each candidate
    counts once; the closure's dominance of a is not counted."""
    t = Tally(f"{pair.name}: min/max")
    m = pair.beta(pair.alpha(a))
    t.check(pair.leq_a(a, m), "closure does not dominate {!r}", a, counted=False)
    for c in fixed_candidates:
        t.check(not pair.leq_a(a, c) or pair.leq_a(m, c),
                "fixed candidate {!r} dominates a but not the closure", c)
        t.check(not eq_b(pair, pair.alpha(c), pair.alpha(a)) or pair.leq_a(c, m),
                "candidate {!r} shares the image but exceeds the closure", c, counted=False)
    return t.report()


def check_order_reflection(pair: GaloisPair, a, a_samples) -> CheckReport:
    """For a fixed point a: a' below a exactly when alpha(a') dominates
    alpha(a).  A non-fixed a is one failing check."""
    t = Tally(f"{pair.name}: order reflection")
    if not eq_a(pair, pair.beta(pair.alpha(a)), a):
        t.check(False, "{!r} is not a fixed point of beta.alpha", a)
        return t.report()
    fa = pair.alpha(a)
    for ap in a_samples:
        t.check(pair.leq_a(ap, a) == pair.leq_b(fa, pair.alpha(ap)),
                "reflection fails at {!r}", ap)
    return t.report()


# ---------------------------------------------------------------------------
# Shipped instantiations


def classical_pair(system) -> GaloisPair:
    """The classical hull/kernel pair on the function model of a finite
    system: families of functions against subsets of the point set."""
    try:
        points = system.points()
    except UnsupportedQueryError:
        raise UnsupportedQueryError("the classical pair is shipped for finite systems") from None

    common_zeros = lambda funcs: system.common_zeros(funcs, DEFAULT_TOL)

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
