"""Canonical irreducible representations and the three ideal families.

Ideals are never materialised as subspaces: every ideal handle is a
membership oracle plus structural data, and all containment questions
reduce to orbit data or to finitely many exact vanishing conditions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import scalars as sc
from .algebra import Element, demote_to_float, element, from_func
from .dynsys import (
    Point, apply_sigma, is_periodic, orbit_closure, orbit_points,
    orbit_set, period, set_contains, set_equal, set_is_empty, set_subset,
    is_invariant_closed, validate_point,
)
from .errors import SystemMismatchError, UnsupportedQueryError
from .funcspace import (
    DEFAULT_TOL, Func, f_eval, f_scale, one_func, separating_func, vanishes_on,
)


# ---------------------------------------------------------------------------
# Representation matrices


@dataclass(frozen=True)
class RepMatrix:
    """Square matrix of a represented element.

    ``period`` is set for the finite-dimensional periodic representations;
    ``window`` is the truncation radius for aperiodic ones, where only the
    central band of the matrix is faithful.
    """

    entries: tuple
    period: int | None = None
    window: int | None = None

    @property
    def dim(self) -> int:
        return len(self.entries)


def _zeros(dim: int, exact: bool):
    z = sc.zero_like(exact)
    return [[z] * dim for _ in range(dim)]


def rep_is_zero(M: RepMatrix, tol: float = DEFAULT_TOL) -> bool:
    return all(sc.is_zero(v, tol) for row in M.entries for v in row)


def _unify_lam(a: Element, lam):
    """Bring lam and the element into one numeric mode."""
    if a.exact and not sc.is_exact(lam):
        return demote_to_float(a), complex(lam)
    if not a.exact and sc.is_exact(lam):
        return a, complex(lam)
    return a, lam


def rep_periodic(system, x: Point, lam, a: Element) -> RepMatrix:
    """Matrix of the finite-dimensional representation at a periodic point."""
    p = period(system, x)
    if p is None:
        raise UnsupportedQueryError("rep_periodic needs a periodic point")
    a, lam = _unify_lam(a, lam)
    exact = a.exact and sc.is_exact(lam)
    orbit = orbit_points(system, x)

    # The unitary step matrix D has ones on the subdiagonal and lam in the
    # top-right corner, so D^n e_j = lam^q e_i with i = (j + n) mod p and
    # q = floor((j + n) / p); for n < 0 this is (D*)^|n|, where a negative
    # q stands for conj(lam)^|q|.
    total = _zeros(p, exact)
    for n, f in a.coeffs.items():
        diag = [f_eval(f, orbit[j]) for j in range(p)]
        for j in range(p):
            q, i = divmod(j + n, p)
            total[i][j] = total[i][j] + diag[i] * sc.unit_pow(lam, q)
    return RepMatrix(tuple(tuple(r) for r in total), period=p)


def rep_aperiodic_window(system, x: Point, W: int, a: Element) -> RepMatrix:
    """Truncation of the aperiodic representation to basis indices -W..W.

    Requires W at least the support radius; products of such windows agree
    with the represented product on the central band of radius
    W minus the support radius.
    """
    if is_periodic(system, x):
        raise UnsupportedQueryError("rep_aperiodic_window needs an aperiodic point")
    if W < a.support_radius():
        raise UnsupportedQueryError("window smaller than the support radius")
    dim = 2 * W + 1
    exact = a.exact
    M = _zeros(dim, exact)
    # basis action: the step generator sends e_k to e_{k+1} and a function
    # acts diagonally by its value along the orbit, so the coefficient of
    # index n contributes a_n(sigma^{k+n} x) at position (k+n, k)
    for n, f in a.coeffs.items():
        for k in range(-W, W + 1):
            if -W <= k + n <= W:
                M[k + n + W][k + W] = M[k + n + W][k + W] + \
                    f_eval(f, apply_sigma(system, x, k + n))
    return RepMatrix(tuple(tuple(r) for r in M), window=W)


# ---------------------------------------------------------------------------
# Ideal handles


@dataclass(frozen=True, eq=False)
class PxIdeal:
    """Kernel of the aperiodic-point representation."""

    system: object
    x: Point

    def __repr__(self):
        return f"Px({self.x!r})"


@dataclass(frozen=True, eq=False)
class PxLambdaIdeal:
    """Kernel of the periodic-point representation with torus parameter."""

    system: object
    x: Point
    lam: object

    def __repr__(self):
        return f"Pxl({self.x!r}, {self.lam})"


@dataclass(frozen=True, eq=False)
class QxIdeal:
    """Intersection of the periodic-point kernels over all torus parameters."""

    system: object
    x: Point

    def __repr__(self):
        return f"Qx({self.x!r})"


@dataclass(frozen=True, eq=False)
class KernelIdeal:
    """All elements whose coefficients vanish on an invariant closed set."""

    system: object
    subset: object

    def __repr__(self):
        return f"K({self.subset!r})"


@dataclass(frozen=True, eq=False)
class IntersectionIdeal:
    system: object
    parts: tuple

    def __repr__(self):
        return "meet(" + ", ".join(repr(p) for p in self.parts) + ")"


@dataclass(frozen=True, eq=False)
class GeneratedIdeal:
    """Two-sided closed ideal generated by finitely many elements."""

    system: object
    gens: tuple

    def __repr__(self):
        return f"gen(<{len(self.gens)} generators>)"


IdealHandle = object


def canonical_px(system, x: Point) -> PxIdeal:
    validate_point(system, x)
    if is_periodic(system, x):
        raise UnsupportedQueryError("Px needs an aperiodic point")
    return PxIdeal(system, x)


def canonical_px_lambda(system, x: Point, lam) -> PxLambdaIdeal:
    validate_point(system, x)
    if not is_periodic(system, x):
        raise UnsupportedQueryError("Pxl needs a periodic point")
    return PxLambdaIdeal(system, x, lam)


def canonical_qx(system, x: Point) -> QxIdeal:
    validate_point(system, x)
    if not is_periodic(system, x):
        raise UnsupportedQueryError("Qx needs a periodic point")
    return QxIdeal(system, x)


def kernel_ideal(system, S) -> KernelIdeal:
    if not is_invariant_closed(system, S):
        raise UnsupportedQueryError("kernel ideals need an invariant closed set")
    return KernelIdeal(system, S)


def intersection_ideal(system, parts) -> IntersectionIdeal:
    parts = tuple(parts)
    for p in parts:
        if p.system != system:
            raise SystemMismatchError("intersection parts on different systems")
    return IntersectionIdeal(system, parts)


def generated_ideal(system, gens) -> GeneratedIdeal:
    gens = tuple(gens)
    for g in gens:
        if g.system != system:
            raise SystemMismatchError("generator on the wrong system")
    return GeneratedIdeal(system, gens)


# ---------------------------------------------------------------------------
# Membership


def vanishing_sum_holds(system, x: Point, lam, a: Element, tol: float) -> bool:
    """The finite vanishing conditions cutting out the periodic-point kernel:
    for every orbit point and every residue j mod the period, the lam-weighted
    sum of the coefficients with index in that residue class is zero."""
    p = period(system, x)
    a, lam = _unify_lam(a, lam)
    for xp in orbit_points(system, x):
        for j in range(p):
            acc = None
            for n, f in a.coeffs.items():
                if (n - j) % p == 0:
                    l = (n - j) // p
                    t = sc.unit_pow(lam, l) * f_eval(f, xp)
                    acc = t if acc is None else acc + t
            if acc is not None and not sc.is_zero(acc, tol):
                return False
    return True


def ideal_member(I: IdealHandle, a: Element, tol: float = DEFAULT_TOL) -> bool:
    """Exact membership oracle for every handle except generated ideals."""
    if a.system != I.system:
        raise SystemMismatchError("element on the wrong system")
    if isinstance(I, PxIdeal):
        S = orbit_closure(I.system, I.x)
        return all(vanishes_on(f, S, tol) for f in a.coeffs.values())
    if isinstance(I, QxIdeal):
        S = orbit_set(I.system, I.x)
        return all(vanishes_on(f, S, tol) for f in a.coeffs.values())
    if isinstance(I, PxLambdaIdeal):
        return vanishing_sum_holds(I.system, I.x, I.lam, a, tol)
    if isinstance(I, KernelIdeal):
        return all(vanishes_on(f, I.subset, tol) for f in a.coeffs.values())
    if isinstance(I, IntersectionIdeal):
        return all(ideal_member(p, a, tol) for p in I.parts)
    raise UnsupportedQueryError(
        "membership in a generated ideal is answered through its zero set"
    )


# ---------------------------------------------------------------------------
# Behaviour classification


@dataclass(frozen=True, eq=False)
class BehaviourReport:
    kind: str  # "well" | "bad" | "plain"
    escape_function: Func | None = None
    escape_element: Element | None = None


def escape_element(f: Func, lam, p: int) -> Element:
    """f - (f / lam) delta^p; lies in the lam-kernel at any point of period p
    while its zero coefficient is f itself.  Modes are unified: the exact
    path is taken only when both the function and lam are exact."""
    if f.exact and sc.is_exact(lam):
        neg = sc.qc(-1) * lam.conjugate()
    else:
        if f.exact:
            f = f.system.demote(f)
        neg = -complex(lam).conjugate()
    return element(f.system, {0: f, p: f_scale(neg, f)})


def ideal_behaviour(I: IdealHandle, tol: float = DEFAULT_TOL) -> BehaviourReport:
    """Classify a handle as well behaved, badly behaved or plain.

    For the plain case the report carries explicit witnesses: a function in
    the image of the zero-coefficient projection that is not itself a member.
    """
    if isinstance(I, (PxIdeal, QxIdeal, KernelIdeal)):
        return BehaviourReport("well")
    if isinstance(I, PxLambdaIdeal):
        f = one_func(I.system, exact=sc.is_exact(I.lam))
        a = escape_element(f, I.lam, period(I.system, I.x))
        return BehaviourReport("bad", escape_function=f, escape_element=a)
    if isinstance(I, IntersectionIdeal):
        if all(ideal_behaviour(p, tol).kind == "well" for p in I.parts):
            return BehaviourReport("well")
        if len(I.parts) == 2 and isinstance(I.parts[0], PxIdeal) \
                and isinstance(I.parts[1], PxLambdaIdeal):
            px, pxl = I.parts
            closure = orbit_closure(I.system, px.x)
            if set_contains(I.system, closure, pxl.x):
                return BehaviourReport("well")  # the intersection collapses to Px
            f = separating_func(I.system, closure, pxl.x, exact=sc.is_exact(pxl.lam))
            a = escape_element(f, pxl.lam, period(I.system, pxl.x))
            if not ideal_member(I, a, tol):
                raise AssertionError("plain-ideal witness failed the membership check")
            if ideal_member(I.parts[1], from_func(f), tol):
                raise AssertionError("escape function unexpectedly inside the ideal")
            return BehaviourReport("plain", escape_function=f, escape_element=a)
    raise UnsupportedQueryError("behaviour classification not defined for this shape")


# ---------------------------------------------------------------------------
# Inclusion table for canonical handles


def _same_orbit(system, x1: Point, x2: Point) -> bool:
    return set_equal(system, orbit_set(system, x1), orbit_set(system, x2))


def _lam_eq(l1, l2) -> bool:
    if sc.is_exact(l1) and sc.is_exact(l2):
        return l1 == l2
    return abs(complex(l1) - complex(l2)) <= 1e-12


def ideal_inclusion(I: IdealHandle, J: IdealHandle) -> bool:
    """Containment of canonical handles, decided purely from orbit data."""
    system = I.system
    if J.system != system:
        raise SystemMismatchError("handles on different systems")
    if isinstance(I, PxIdeal):
        c1 = orbit_closure(system, I.x)
        if isinstance(J, PxIdeal):
            return set_subset(system, orbit_closure(system, J.x), c1)
        if isinstance(J, (QxIdeal, PxLambdaIdeal)):
            return set_subset(system, orbit_set(system, J.x), c1)
    if isinstance(I, QxIdeal):
        if isinstance(J, PxIdeal):
            return False
        if isinstance(J, (QxIdeal, PxLambdaIdeal)):
            return _same_orbit(system, I.x, J.x)
    if isinstance(I, PxLambdaIdeal):
        if isinstance(J, PxLambdaIdeal):
            return _same_orbit(system, I.x, J.x) and _lam_eq(I.lam, J.lam)
        if isinstance(J, (PxIdeal, QxIdeal)):
            return False
    raise UnsupportedQueryError("inclusion table covers canonical handles only")


# ---------------------------------------------------------------------------
# Separation


@dataclass(frozen=True, eq=False)
class SeparationWitness:
    point: Point
    coeff_index: int
    value: object
    rep_kind: str  # "aperiodic" | "periodic"
    lam: object | None = None


def separating_check(system, a: Element, tol: float = DEFAULT_TOL):
    """Find a canonical representation with nonzero image, or None for zero.

    Uses the fact that evaluating some coefficient at some point is nonzero
    exactly when the element is nonzero, and that the standard family of
    representations detects this.
    """
    found = None
    for n, f in sorted(a.coeffs.items()):
        x = a.system.point_where_nonzero(f, tol)
        if x is not None:
            found = (n, x, f_eval(f, x))
            break
    if found is None:
        return None
    n, x, val = found
    if is_periodic(system, x):
        N = a.support_radius()
        order = 2 * N + 1
        for k in range(order):
            lam = cmath.exp(2j * math.pi * k / order)
            if not rep_is_zero(rep_periodic(system, x, lam, a), tol):
                return SeparationWitness(x, n, val, "periodic", lam)
        raise AssertionError("no separating torus parameter found")
    return SeparationWitness(x, n, val, "aperiodic")


# ---------------------------------------------------------------------------
# Quotients by well behaved closed ideals


@dataclass(frozen=True, eq=False)
class Restriction:
    """Restriction of a system to an invariant closed subset, with maps for
    points, functions and elements.  Realises the quotient by the kernel
    ideal of the subset."""

    system: object
    subset: object
    subsystem: object
    _point_map: object  # callable Point -> Point
    _func_map: object   # callable Func -> Func

    def restrict_point(self, x: Point) -> Point:
        return self._point_map(x)

    def restrict_func(self, f: Func) -> Func:
        return self._func_map(f)

    def restrict_element(self, a: Element) -> Element:
        return Element(self.subsystem, {n: self._func_map(f) for n, f in a.coeffs.items()})


def restrict_system(system, S) -> Restriction:
    if not is_invariant_closed(system, S):
        raise UnsupportedQueryError("restriction needs an invariant closed set")
    if set_is_empty(S):
        raise UnsupportedQueryError("cannot restrict to the empty set")
    sub, pmap, fmap = system.restriction(S)
    return Restriction(system, S, sub, pmap, fmap)

