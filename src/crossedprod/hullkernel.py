"""Hull and kernel operators between ideals and invariant closed sets.

The hull of an ideal is the common zero set of all coefficients of all its
elements; the kernel of an invariant closed set is the ideal of elements
whose coefficients vanish there.  On the canonical families both have exact
closed forms; generated ideals go through coefficient zero sets.
"""

from __future__ import annotations

from .algebra import Element
from .dynsys import is_invariant_closed
from .errors import UnsupportedQueryError
from .records import record
from .reps_ideals import (
    HullResult, IdealHandle, KernelIdeal, ideal_member, kernel_ideal, orbit_kernel,
)
from .scalars import DEFAULT_TOL


def hull(I: IdealHandle, tol: float = DEFAULT_TOL) -> HullResult:
    """Common zero set of all coefficient functions of the ideal."""
    return I.hull(tol)


def kernel_member(system, S, a: Element, tol: float = DEFAULT_TOL) -> bool:
    return ideal_member(kernel_ideal(system, S), a, tol)


def kernel_project(system, S, a: Element) -> Element:
    """Zero the coefficients on S, keeping them unchanged elsewhere.

    Only defined when the complement indicator is continuous (S clopen);
    a shift set containing infinity together with finitely many integers
    has no such indicator and is rejected.
    """
    system.check_set(S)
    return Element(system, {n: system.zero_on(S, f) for n, f in a.coeffs.items()})


def hull_kernel_compose(system, S, tol: float = DEFAULT_TOL):
    """Hull of the kernel of S; equals S for invariant closed S."""
    return hull(kernel_ideal(system, S), tol).subset


def kernel_hull_compose(I: IdealHandle, tol: float = DEFAULT_TOL) -> KernelIdeal:
    """Kernel of the hull of I; the smallest well behaved closed ideal
    containing I, and equal to I exactly for well behaved handles."""
    return kernel_ideal(I.system, hull(I, tol).subset)


def decompose_as_intersection(system, S) -> list[IdealHandle]:
    """Write the kernel ideal of S as an intersection of canonical ideals,
    one per orbit representative covering S."""
    if not is_invariant_closed(system, S):
        raise UnsupportedQueryError("decomposition needs an invariant closed set")
    return [orbit_kernel(system, x) for x in system.cover_representatives(S)]


@record(eq=False)
class MinimalityReport:
    minimal: bool
    invariant_closed_set_count: int | None  # None means infinitely many
    well_behaved_closed_ideal_count: int | None
    sets: tuple | None


def minimality_dichotomy(system) -> MinimalityReport:
    """Count invariant closed sets (equivalently, well behaved closed ideals)
    and report whether the system is minimal, i.e. the count is two."""
    sets = system.invariant_closed_sets()
    if sets is None:
        return MinimalityReport(system.is_minimal(), None, None, None)
    count = len(sets)
    listed = tuple(sets) if count <= 64 else None
    minimal = count == 2
    assert minimal == system.is_minimal()
    return MinimalityReport(minimal, count, count, listed)
