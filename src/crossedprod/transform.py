"""Transform-side operators: zero sets in X x T and synthesized ideals.

The transform of an element collects the Fourier transforms of its
coefficient sequences at every point; on a periodic orbit its residue sums
cut out both a Pxl kernel and a generated ideal's lambda set.  Zero sets
are stored per orbit as (representative, lambda set) records, whose
literals their ``repr``s write and :func:`read_torus` reads; the reverse
operator rebuilds an ideal as an intersection of canonical ones.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property

from . import scalars as sc
from .algebra import Element, _transform_value, alg_mul, demote_to_float, fourier_func, from_func
from .dynsys import Point, validate_point
from .errors import SystemMismatchError
from .records import record
from .scalars import DEFAULT_TOL, ROOT_MATCH_TOL, exact_poly_gcd, poly_gcd, unit_circle_roots


# ---------------------------------------------------------------------------
# Torus subsets


@record
class FullCircle:
    roots = None  # no explicit list: every torus parameter

    def __repr__(self):
        return "full"


@record
class FiniteRoots:
    roots: tuple

    def __repr__(self):
        return "roots{" + ",".join(map(sc.render_scalar, self.roots)) + "}"


@record
class PolynomialRoots:
    """Unit-circle roots of a polynomial, ascending coefficients."""

    coeffs: tuple
    tol: float = DEFAULT_TOL

    def __repr__(self):
        return "poly{" + ",".join(map(sc.render_scalar, self.coeffs)) + "}"

    @cached_property  # found once, on first use: a lambda set never asked finds no roots
    def roots(self) -> list[complex]:
        return unit_circle_roots(self.coeffs, self.tol)


@record(eq=False)
class TorusEntry:
    """One orbit of the product set: the X part is the orbit closure of the
    point (the orbit itself for a periodic point, so use_closure only marks
    how the entry is written), the torus part is the lambda set."""

    point: Point
    lamset: object
    use_closure: bool = False

    def __repr__(self):
        mark = "*" if self.use_closure else ""
        return f"{self.point!r}{mark}: {self.lamset!r}"


@record(eq=False)
class TorusSubset:
    system: object
    entries: tuple

    def __repr__(self):
        return "t[" + "; ".join(repr(e) for e in self.entries) + "]"


def read_torus(s, system, exact: bool, tol: float = DEFAULT_TOL) -> TorusSubset:
    """A torus literal from the token stream s, as the reprs above write it:
    t[entry; ...], each entry point "*"? ":" lambda set.  The lambda sets
    hold float roots and coefficients whatever the mode exact; a poly{...}
    set finds its unit-circle roots within tol, as zeros_of_ideal does."""
    s.expect_name("t")
    s.expect("[")
    entries = []
    if not s.accept("]"):
        while True:
            x = s.point(system)
            closure = s.accept("*") is not None
            s.expect(":")
            entries.append(TorusEntry(x, _read_lamset(s, tol), use_closure=closure))
            if s.accept("]"):
                break
            s.expect(";")
    return TorusSubset(system, tuple(entries))


def _read_lamset(s, tol: float):
    """full, roots{scalar, ...} or poly{scalar, ...}."""
    t = s.expect_name("full", "roots", "poly")
    if t.text == "full":
        return FullCircle()
    vals = tuple(complex(v) for v in s.braced(lambda: s.scalar(False)))
    return FiniteRoots(vals) if t.text == "roots" else PolynomialRoots(vals, tol)


def lamset_roots(ls) -> list[complex] | None:
    """Explicit root list, or None for the full circle."""
    return None if ls.roots is None else [complex(r) for r in ls.roots]


def lamset_contains(ls, mu, tol: float = ROOT_MATCH_TOL) -> bool:
    r = lamset_roots(ls)
    if r is None:
        return True
    return any(abs(complex(mu) - u) <= tol for u in r)


def torus_contains(T: TorusSubset, x: Point, mu, tol: float = ROOT_MATCH_TOL) -> bool:
    validate_point(T.system, x)
    for e in T.entries:
        validate_point(T.system, e.point)
        xpart = T.system.orbit_closure(e.point)
        if T.system.contains(xpart, x) and lamset_contains(e.lamset, mu, tol):
            return True
    return False


def torus_is_empty(T: TorusSubset) -> bool:
    return all(lamset_roots(e.lamset) == [] for e in T.entries)


def pth_roots(lam, p: int) -> list[complex]:
    lam = complex(lam)
    base_angle = cmath.phase(lam)
    return [cmath.exp(1j * (base_angle + 2 * math.pi * k) / p) for k in range(p)]


# ---------------------------------------------------------------------------
# Zero sets of ideals


def zeros_of_ideal(I, tol: float = DEFAULT_TOL) -> TorusSubset:
    """The common zero set of the transforms of the ideal's elements."""
    return I.zeros(tol)


def generated_zero_set(I, tol: float) -> TorusSubset:
    """Zero set of a generated ideal, one entry per orbit that every
    generator's transform vanishes on: the lambda set of a periodic orbit,
    the full circle over the closure of an aperiodic one."""
    system = I.system
    out = []
    for x in system.orbit_reps():
        if system.period(x) is not None:
            ls = _periodic_lambda_set(I, x, tol)
            if ls is not None:
                out.append(TorusEntry(x, ls))
        else:
            closure = system.orbit_closure(x)
            if all(system.vanishes_on(f, closure, tol) for g in I.gens for f in g.coeffs.values()):
                out.append(TorusEntry(x, FullCircle(), use_closure=True))
    return TorusSubset(I.system, tuple(out))


def residue_sums(a: Element, x: Point) -> list[dict]:
    """For each residue j mod the period p of x that some index meets and
    each orbit point y, residue first, the map l -> a_{l p + j}(y) in the
    element's order.  Weighted by lam^l, each map is a vanishing condition
    of the kernel at (x, lam); by mu^{p l}, one of a lambda set."""
    system = a.system
    orbit = system.orbit_points(x)
    p = len(orbit)
    sums = [{} for _ in range(p * p)]
    for n, f in a.coeffs.items():
        l, j = divmod(n, p)
        for k, y in enumerate(orbit):
            sums[j * p + k][l] = system.eval(f, y)
    return [s for s in sums if s]


def _periodic_lambda_set(I, x: Point, tol):
    """Lambda set of a periodic orbit for a generated ideal: common unit
    roots of the per-generator vanishing conditions, as one gcd polynomial.

    Each condition is a residue sum as the mu-polynomial sum_l mu^{p l}
    g_{l p + j}(y) with powers cleared; an orbit with coprime conditions is
    omitted (None), and all-zero conditions give the full circle.  Exact
    generators take an exact gcd over Q(i), float ones poly_gcd's.
    """
    p = I.system.period(x)
    exact = all(g.exact for g in I.gens if g.coeffs)
    conds: list[list] = []
    for g in I.gens:
        for sums in residue_sums(g, x):
            lmin = min(sums)
            poly = [sc.zero_like(exact)] * ((max(sums) - lmin) * p + 1)
            for l, v in sums.items():
                poly[(l - lmin) * p] += v if exact else complex(v)
            conds.append(poly)
    g = exact_poly_gcd(conds) if exact else poly_gcd(conds, tol)
    if g is None:
        return FullCircle()
    if len(g) == 1:
        return None
    return PolynomialRoots(tuple(g), tol)


# ---------------------------------------------------------------------------
# Synthesized ideals


def ideal_of_torus_set(T: TorusSubset, tol: float = DEFAULT_TOL):
    """The largest ideal whose transforms vanish on T, written as an
    intersection of canonical ideals (one per orbit/root)."""
    from .reps_ideals import (  # reps_ideals imports this module
        canonical_px_lambda, intersection_ideal, orbit_kernel,
    )
    system = T.system
    parts: list = []
    whole: list = []  # points already given their whole circle
    given: list = []  # (point, torus parameter) pairs already given
    for e in T.entries:
        roots = lamset_roots(e.lamset)
        if roots == []:
            continue
        validate_point(system, e.point)
        p = system.period(e.point)
        if p is None or roots is None:
            if e.point not in whole:
                whole.append(e.point)
                parts.append(orbit_kernel(system, e.point))
            continue
        for mu in roots:
            lam = complex(mu) ** p
            if not any(x == e.point and abs(lam - l) <= ROOT_MATCH_TOL for x, l in given):
                given.append((e.point, lam))
                parts.append(canonical_px_lambda(system, e.point, lam))
    return intersection_ideal(system, parts)


def tilde_member(T: TorusSubset, a: Element, tol: float = DEFAULT_TOL) -> bool:
    """Whether the transform of a vanishes on all of T.

    At a periodic point the transform is summed from the coefficient values
    at each orbit point, for each root.  An aperiodic point with explicit
    roots asks the transform at each root, a C(X)-model function, to vanish
    on the orbit closure; the full-circle case asks every coefficient to
    vanish there.
    """
    system = T.system
    if a.system != system:
        raise SystemMismatchError("element on the wrong system")
    fa = demote_to_float(a) if a.exact else a  # the mode of the roots, which are complex
    for e in T.entries:
        validate_point(system, e.point)
        roots = lamset_roots(e.lamset)
        if roots is not None and system.period(e.point) is not None:
            orbit = system.orbit_points(e.point)
            ok = all(sc.is_zero(_transform_value(fa, mu, y), tol) for mu in roots for y in orbit)
        else:
            closure = system.orbit_closure(e.point)
            funcs = a.coeffs.values() if roots is None else (fourier_func(fa, mu) for mu in roots)
            ok = all(system.vanishes_on(f, closure, tol) for f in funcs)
        if not ok:
            return False
    return True


def ideal_member_via_S(T: TorusSubset, a: Element, tol: float = DEFAULT_TOL) -> bool:
    """Membership in the synthesized ideal of T, realised by testing the
    products a.f against the raw vanishing condition, with f running over a
    point-indicator style basis of the function model."""
    window = _shift_window(T, a)
    basis = a.system.cx_basis(window, max(1, len(a.coeffs)), a.exact)
    return all(tilde_member(T, alg_mul(a, from_func(f)), tol) for f in basis)


def _shift_window(T: TorusSubset, a: Element) -> tuple:
    ints: set[int] = set()
    for f in a.coeffs.values():
        ints.update(f.system.exceptional_ints(f))
    for e in T.entries:
        if isinstance(e.point.coord, int):
            ints.add(e.point.coord)
    N = a.support_radius()
    if not ints:
        ints = {0}
    lo, hi = min(ints) - N, max(ints) + N
    return tuple(range(lo, hi + 1)) + (hi + N + 1,)


def zi_closure(I, tol: float = DEFAULT_TOL):
    """Smallest representation kernel containing the ideal: the synthesized
    ideal of its zero set."""
    return ideal_of_torus_set(zeros_of_ideal(I, tol), tol)


@record(eq=False)
class ZerosReport:
    nonempty: bool
    witness: tuple | None  # (Point, mu)
    note: str
    zeros: TorusSubset


def zeros_nonempty_report(I, tol: float = DEFAULT_TOL) -> ZerosReport:
    """Report whether the zero set is nonempty, with a witness pair.

    A nonempty zero set means the ideal sits inside the kernel of one of
    the canonical irreducible representations (at the witness point, with
    the witness torus parameter); an empty one means no such kernel
    contains it.
    """
    Z = zeros_of_ideal(I, tol)
    for e in Z.entries:
        roots = lamset_roots(e.lamset)
        if roots != []:
            mu = (1 + 0j) if roots is None else roots[0]
            return ZerosReport(True, (e.point, mu),
                               "contained in a canonical representation kernel at the witness",
                               Z)
    return ZerosReport(False, None,
                       "no canonical representation kernel contains the ideal", Z)


def adjoint_zeros_equal(I, grid_order: int = 64, tol: float = 1e-8) -> bool:
    """Zero sets of a generated ideal and of its adjoint ideal coincide.

    Compared two ways: membership patterns over a root-of-unity grid of
    the given order, and matching of the computed per-orbit root lists.
    """
    Z1 = zeros_of_ideal(I)
    Z2 = zeros_of_ideal(I.adjoint())
    probes = I.system.cover_representatives(I.system.whole_space())
    grid = sc.roots_of_unity(grid_order)
    for x in probes:
        for mu in grid:
            if torus_contains(Z1, x, mu, max(tol, ROOT_MATCH_TOL)) != \
                    torus_contains(Z2, x, mu, max(tol, ROOT_MATCH_TOL)):
                return False
    return _same_root_lists(Z1, Z2)


def _same_root_lists(Z1: TorusSubset, Z2: TorusSubset) -> bool:
    """The same points, each with the full circle in both or with root lists
    that match in order within ROOT_MATCH_TOL."""
    def same(r1, r2):
        if r1 is None or r2 is None:
            return r1 is r2
        return len(r1) == len(r2) and all(abs(u - v) <= ROOT_MATCH_TOL for u, v in zip(r1, r2))

    g1, g2 = ({e.point: lamset_roots(e.lamset) for e in Z.entries} for Z in (Z1, Z2))
    return g1.keys() == g2.keys() and all(same(g1[k], g2[k]) for k in g1)


# ---------------------------------------------------------------------------
# General containment of handles


def ideal_leq(I, J, tol: float = DEFAULT_TOL) -> bool:
    """Containment of I in J, decided by the handles from membership or
    orbit data and never from a zero set: a generated I lies in J when J
    holds each generator.  A generated J is refused."""
    if J.system != I.system:
        raise SystemMismatchError("handles on different systems")
    return J.contains(I, tol)
