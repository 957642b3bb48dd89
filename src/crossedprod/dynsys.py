"""Desk-scale models of compact dynamical systems.

Four models are supported: a finite permutation system, the one-point
compactification of the integer shift, a circle rotation (with a declared
irrationality flag), and finite disjoint unions of these.  Closed subsets
are stored in model-specific normal forms that are closed under the set
algebra the hull/kernel machinery needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import SystemMismatchError, UnsupportedQueryError

TURN_TOL = 1e-9


class _Infinity:
    """Marker for the fixed point at infinity of the compactified shift."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()


@dataclass(frozen=True)
class Surd:
    """Quadratic surd (p + q*sqrt(r)) / d, used for rotation angles.

    Keeping the angle symbolic lets multiples of it be reduced mod 1 at
    full precision with integer arithmetic, which a bare float cannot do
    once the multiplier gets large.
    """

    p: int
    q: int
    r: int
    d: int = 1

    def __post_init__(self):
        if self.d == 0:
            raise ValueError("zero denominator in surd")
        if self.r < 0:
            raise ValueError("negative radicand")

    def value(self) -> float:
        return (self.p + self.q * math.sqrt(self.r)) / self.d

    def times_mod1(self, m: int) -> float:
        """Fractional part of m * value(), via high-precision integers.

        Small multipliers take a float fast path; the integer path keeps
        full precision once m * value() outgrows the double mantissa.
        """
        if abs(m) <= 10_000:
            return (self.value() * m) % 1.0
        digits = 40 + len(str(abs(self.q * m) + 1))
        scale = 10 ** digits
        sq = math.isqrt(self.r * scale * scale)
        num = self.p * m * scale + self.q * m * sq
        frac = Fraction(num, self.d * scale) % 1
        return float(frac)


GOLDEN_CONJUGATE = Surd(-1, 1, 5, 2)


# ---------------------------------------------------------------------------
# Systems


@dataclass(frozen=True)
class FiniteSystem:
    """Permutation dynamics on {0, ..., size-1}."""

    size: int
    sigma: tuple[int, ...]

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("finite system needs at least one point")
        if sorted(self.sigma) != list(range(self.size)):
            raise ValueError("sigma is not a permutation of the point set")

    def sigma_inverse(self) -> tuple[int, ...]:
        inv = [0] * self.size
        for i, j in enumerate(self.sigma):
            inv[j] = i
        return tuple(inv)


@dataclass(frozen=True)
class ShiftSystem:
    """n -> n+1 on the one-point compactification of the integers."""


@dataclass(frozen=True)
class RotationSystem:
    """Rotation of the circle by ``theta`` turns.

    Freeness is a declaration, not a numeric guess: ``irrational=True``
    marks the angle as irrational, and then the angle should be a Surd.
    With ``irrational=False`` the angle is coerced to an exact Fraction,
    making every point periodic with the denominator as period.
    """

    theta: object  # Surd | Fraction | float
    irrational: bool = True

    def __post_init__(self):
        th = self.theta
        if not self.irrational and not isinstance(th, Fraction):
            object.__setattr__(self, "theta", Fraction(th))
        v = self.theta_value()
        if not 0 < v < 1:
            raise ValueError("theta must lie strictly between 0 and 1 turns")

    def theta_value(self) -> float:
        if isinstance(self.theta, Surd):
            return self.theta.value()
        return float(self.theta)

    def theta_times_mod1(self, m: int):
        """m * theta mod 1; Fraction for rational angles, float otherwise."""
        if isinstance(self.theta, Surd):
            return self.theta.times_mod1(m)
        if isinstance(self.theta, Fraction):
            return (self.theta * m) % 1
        return (self.theta * m) % 1.0


@dataclass(frozen=True)
class UnionSystem:
    """Disjoint union acting componentwise."""

    components: tuple

    def __post_init__(self):
        if not self.components:
            raise ValueError("union of no systems")


DynamicalSystem = object  # FiniteSystem | ShiftSystem | RotationSystem | UnionSystem


# ---------------------------------------------------------------------------
# Points


@dataclass(frozen=True)
class Point:
    """A point of a system: component path plus leaf coordinate.

    The path is empty for non-union systems; for unions it lists the
    component index at each nesting level.  The coordinate is an int for
    finite systems, an int or INF for the shift, and a turns value
    (Fraction or float in [0,1)) for rotations.
    """

    coord: object
    path: tuple[int, ...] = ()

    def __repr__(self):
        base = repr(self.coord)
        for i in reversed(self.path):
            base = f"c{i}:{base}"
        return base


def pt(coord, *path) -> Point:
    return Point(coord, tuple(path))


def in_component(index: int, x: Point) -> Point:
    return Point(x.coord, (index,) + x.path)


def turns_eq(a, b, tol: float = TURN_TOL) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return (a - b) % 1 == 0
    d = (float(a) - float(b)) % 1.0
    return d <= tol or 1.0 - d <= tol


def leaf_system(sys, path: tuple[int, ...]):
    for i in path:
        if not isinstance(sys, UnionSystem):
            raise SystemMismatchError("point path descends below a leaf system")
        if not 0 <= i < len(sys.components):
            raise SystemMismatchError("component index out of range")
        sys = sys.components[i]
    if isinstance(sys, UnionSystem):
        raise SystemMismatchError("point path stops at a union, not a leaf")
    return sys


def validate_point(sys, x: Point) -> None:
    leaf = leaf_system(sys, x.path)
    c = x.coord
    if isinstance(leaf, FiniteSystem):
        if not (isinstance(c, int) and 0 <= c < leaf.size):
            raise SystemMismatchError(f"{c!r} is not a point of the finite system")
    elif isinstance(leaf, ShiftSystem):
        if not (c is INF or isinstance(c, int)):
            raise SystemMismatchError(f"{c!r} is not a shift point")
    elif isinstance(leaf, RotationSystem):
        if not isinstance(c, (Fraction, float, int)):
            raise SystemMismatchError(f"{c!r} is not a rotation point")
    else:
        raise SystemMismatchError("unknown system kind")


@lru_cache(maxsize=4096)
def sigma_power_map(leaf: FiniteSystem, k: int) -> tuple:
    """The permutation sigma^k as an image tuple."""
    if k == 0:
        return tuple(range(leaf.size))
    step = leaf.sigma if k > 0 else leaf.sigma_inverse()
    out = list(range(leaf.size))
    for _ in range(abs(k)):
        out = [step[i] for i in out]
    return tuple(out)


def apply_sigma(sys, x: Point, k: int) -> Point:
    """k-th iterate of the homeomorphism applied to x."""
    validate_point(sys, x)
    leaf = leaf_system(sys, x.path)
    if isinstance(leaf, FiniteSystem):
        return Point(sigma_power_map(leaf, k % _lcm_order(leaf))[x.coord], x.path)
    if isinstance(leaf, ShiftSystem):
        if x.coord is INF:
            return x
        return Point(x.coord + k, x.path)
    # rotation
    step = leaf.theta_times_mod1(k)
    if isinstance(x.coord, Fraction) and isinstance(step, Fraction):
        return Point((x.coord + step) % 1, x.path)
    return Point((float(x.coord) + float(step)) % 1.0, x.path)


def _orbit_len(leaf: FiniteSystem, i: int) -> int:
    j = leaf.sigma[i]
    n = 1
    while j != i:
        j = leaf.sigma[j]
        n += 1
    return n


@lru_cache(maxsize=1024)
def _lcm_order(leaf: FiniteSystem) -> int:
    order = 1
    for i in range(leaf.size):
        order = math.lcm(order, _orbit_len(leaf, i))
    return order


def period(sys, x: Point):
    """Least p >= 1 with sigma^p(x) = x, or None for aperiodic points."""
    validate_point(sys, x)
    leaf = leaf_system(sys, x.path)
    if isinstance(leaf, FiniteSystem):
        return _orbit_len(leaf, x.coord)
    if isinstance(leaf, ShiftSystem):
        return 1 if x.coord is INF else None
    if leaf.irrational:
        return None
    return leaf.theta.denominator


def is_periodic(sys, x: Point) -> bool:
    return period(sys, x) is not None


def orbit_points(sys, x: Point) -> list[Point]:
    """The forward orbit of a periodic point, starting at x."""
    p = period(sys, x)
    if p is None:
        raise UnsupportedQueryError("orbit_points needs a periodic point")
    return [apply_sigma(sys, x, k) for k in range(p)]


# ---------------------------------------------------------------------------
# Closed sets


@dataclass(frozen=True)
class FiniteSet:
    points: frozenset

    def __repr__(self):
        return "{" + ",".join(str(i) for i in sorted(self.points)) + "}"


@dataclass(frozen=True)
class ShiftSet:
    """Closed subset of the compactified shift.

    Normal forms: a finite set of integers with an optional infinity flag,
    or (cofinite=True) the complement of a finite integer set together
    with infinity.  Any infinite closed set must contain infinity, which
    the cofinite form enforces by construction.
    """

    ints: frozenset
    has_inf: bool = False
    cofinite: bool = False

    def __post_init__(self):
        if self.cofinite and not self.has_inf:
            raise ValueError("cofinite shift sets contain infinity")

    def __repr__(self):
        ints = ",".join(str(i) for i in sorted(self.ints))
        if self.cofinite:
            return "co{" + ints + "}"
        return "{" + (("inf," + ints) if self.has_inf else ints).rstrip(",") + "}"


@dataclass(frozen=True)
class CircleSet:
    whole: bool
    turns: tuple = ()

    def __repr__(self):
        if self.whole:
            return "circle"
        return "{" + ",".join(_fmt_turn(t) for t in self.turns) + "}"


def _fmt_turn(t):
    return str(t) if isinstance(t, Fraction) else repr(float(t))


@dataclass(frozen=True)
class UnionSet:
    parts: tuple

    def __repr__(self):
        return "u[" + "; ".join(repr(p) for p in self.parts) + "]"


ClosedSet = object  # FiniteSet | ShiftSet | CircleSet | UnionSet


def _circle_points(turns_iter) -> CircleSet:
    uniq: list = []
    for t in turns_iter:
        t = t % 1 if isinstance(t, Fraction) else float(t) % 1.0
        if not any(turns_eq(t, u) for u in uniq):
            uniq.append(t)
    return CircleSet(False, tuple(sorted(uniq, key=float)))


def empty_set(sys) -> ClosedSet:
    if isinstance(sys, FiniteSystem):
        return FiniteSet(frozenset())
    if isinstance(sys, ShiftSystem):
        return ShiftSet(frozenset())
    if isinstance(sys, RotationSystem):
        return CircleSet(False, ())
    return UnionSet(tuple(empty_set(c) for c in sys.components))


def whole_space(sys) -> ClosedSet:
    if isinstance(sys, FiniteSystem):
        return FiniteSet(frozenset(range(sys.size)))
    if isinstance(sys, ShiftSystem):
        return ShiftSet(frozenset(), has_inf=True, cofinite=True)
    if isinstance(sys, RotationSystem):
        return CircleSet(True)
    return UnionSet(tuple(whole_space(c) for c in sys.components))


def _check_set(sys, S) -> None:
    if isinstance(sys, FiniteSystem):
        if not isinstance(S, FiniteSet):
            raise SystemMismatchError("expected a finite-system set")
        if any(not (0 <= i < sys.size) for i in S.points):
            raise SystemMismatchError("set mentions points outside the system")
    elif isinstance(sys, ShiftSystem):
        if not isinstance(S, ShiftSet):
            raise SystemMismatchError("expected a shift set")
    elif isinstance(sys, RotationSystem):
        if not isinstance(S, CircleSet):
            raise SystemMismatchError("expected a circle set")
    else:
        if not isinstance(S, UnionSet) or len(S.parts) != len(sys.components):
            raise SystemMismatchError("union set arity mismatch")
        for c, p in zip(sys.components, S.parts):
            _check_set(c, p)


def set_contains(sys, S: ClosedSet, x: Point) -> bool:
    _check_set(sys, S)
    validate_point(sys, x)
    if isinstance(sys, UnionSystem):
        i = x.path[0]
        return set_contains(sys.components[i], S.parts[i], Point(x.coord, x.path[1:]))
    if isinstance(sys, FiniteSystem):
        return x.coord in S.points
    if isinstance(sys, ShiftSystem):
        if S.cofinite:
            return True if x.coord is INF else x.coord not in S.ints
        if x.coord is INF:
            return S.has_inf
        return x.coord in S.ints
    if S.whole:
        return True
    return any(turns_eq(x.coord, t) for t in S.turns)


def set_is_empty(S: ClosedSet) -> bool:
    if isinstance(S, FiniteSet):
        return not S.points
    if isinstance(S, ShiftSet):
        return not S.cofinite and not S.ints and not S.has_inf
    if isinstance(S, CircleSet):
        return not S.whole and not S.turns
    return all(set_is_empty(p) for p in S.parts)


def set_union(sys, A: ClosedSet, B: ClosedSet) -> ClosedSet:
    _check_set(sys, A)
    _check_set(sys, B)
    if isinstance(sys, UnionSystem):
        return UnionSet(tuple(
            set_union(c, a, b) for c, a, b in zip(sys.components, A.parts, B.parts)
        ))
    if isinstance(sys, FiniteSystem):
        return FiniteSet(A.points | B.points)
    if isinstance(sys, ShiftSystem):
        if A.cofinite and B.cofinite:
            return ShiftSet(A.ints & B.ints, True, True)
        if A.cofinite or B.cofinite:
            co, fin = (A, B) if A.cofinite else (B, A)
            return ShiftSet(co.ints - fin.ints, True, True)
        return ShiftSet(A.ints | B.ints, A.has_inf or B.has_inf)
    if A.whole or B.whole:
        return CircleSet(True)
    return _circle_points(list(A.turns) + list(B.turns))


def set_intersect(sys, A: ClosedSet, B: ClosedSet) -> ClosedSet:
    _check_set(sys, A)
    _check_set(sys, B)
    if isinstance(sys, UnionSystem):
        return UnionSet(tuple(
            set_intersect(c, a, b) for c, a, b in zip(sys.components, A.parts, B.parts)
        ))
    if isinstance(sys, FiniteSystem):
        return FiniteSet(A.points & B.points)
    if isinstance(sys, ShiftSystem):
        if A.cofinite and B.cofinite:
            return ShiftSet(A.ints | B.ints, True, True)
        if A.cofinite or B.cofinite:
            co, fin = (A, B) if A.cofinite else (B, A)
            return ShiftSet(fin.ints - co.ints, fin.has_inf)
        return ShiftSet(A.ints & B.ints, A.has_inf and B.has_inf)
    if A.whole:
        return B
    if B.whole:
        return A
    return _circle_points(t for t in A.turns if any(turns_eq(t, u) for u in B.turns))


def set_subset(sys, A: ClosedSet, B: ClosedSet) -> bool:
    """A is contained in B."""
    _check_set(sys, A)
    _check_set(sys, B)
    if isinstance(sys, UnionSystem):
        return all(set_subset(c, a, b)
                   for c, a, b in zip(sys.components, A.parts, B.parts))
    if isinstance(sys, FiniteSystem):
        return A.points <= B.points
    if isinstance(sys, ShiftSystem):
        if A.cofinite:
            return B.cofinite and B.ints <= A.ints
        if B.cofinite:
            return not (A.ints & B.ints)
        return A.ints <= B.ints and (B.has_inf or not A.has_inf)
    if B.whole:
        return True
    if A.whole:
        return False
    return all(any(turns_eq(t, u) for u in B.turns) for t in A.turns)


def set_equal(sys, A: ClosedSet, B: ClosedSet) -> bool:
    return set_subset(sys, A, B) and set_subset(sys, B, A)


def orbit_set(sys, x: Point) -> ClosedSet:
    """The (finite, closed) orbit of a periodic point as a closed set."""
    pts = orbit_points(sys, x)
    return _points_to_set(sys, pts)


def _points_to_set(sys, pts: list[Point]) -> ClosedSet:
    if isinstance(sys, UnionSystem):
        parts = []
        for i, c in enumerate(sys.components):
            sub = [Point(p.coord, p.path[1:]) for p in pts if p.path and p.path[0] == i]
            parts.append(_points_to_set(c, sub))
        return UnionSet(tuple(parts))
    if isinstance(sys, FiniteSystem):
        return FiniteSet(frozenset(p.coord for p in pts))
    if isinstance(sys, ShiftSystem):
        ints = frozenset(p.coord for p in pts if p.coord is not INF)
        return ShiftSet(ints, any(p.coord is INF for p in pts))
    return _circle_points(p.coord for p in pts)


def orbit_closure(sys, x: Point) -> ClosedSet:
    """Closure of the orbit of x."""
    p = period(sys, x)
    if p is not None:
        return orbit_set(sys, x)
    leaf = leaf_system(sys, x.path)
    if isinstance(leaf, ShiftSystem):
        closure: ClosedSet = ShiftSet(frozenset(), True, True)
    else:  # irrational rotation: orbits are dense
        closure = CircleSet(True)
    return _embed_set(sys, x.path, closure)


def _embed_set(sys, path: tuple[int, ...], S: ClosedSet) -> ClosedSet:
    if not path:
        _check_set(sys, S)
        return S
    parts = list(empty_set(c) for c in sys.components)
    parts[path[0]] = _embed_set(sys.components[path[0]], path[1:], S)
    return UnionSet(tuple(parts))


def largest_invariant_subset(sys, S: ClosedSet) -> ClosedSet:
    """Points of S whose full orbit stays inside S; closed and invariant."""
    _check_set(sys, S)
    if isinstance(sys, UnionSystem):
        return UnionSet(tuple(
            largest_invariant_subset(c, p) for c, p in zip(sys.components, S.parts)
        ))
    if isinstance(sys, FiniteSystem):
        keep = set()
        for i in S.points:
            orb = orbit_points(sys, Point(i))
            if all(q.coord in S.points for q in orb):
                keep.add(i)
        return FiniteSet(frozenset(keep))
    if isinstance(sys, ShiftSystem):
        if S.cofinite:
            if not S.ints:
                return S
            return ShiftSet(frozenset(), True)  # only infinity survives
        return ShiftSet(frozenset(), S.has_inf)
    if S.whole:
        return S
    if sys.irrational:
        return CircleSet(False, ())
    keep = [t for t in S.turns
            if all(set_contains(sys, S, apply_sigma(sys, Point(t), k))
                   for k in range(period(sys, Point(t))))]
    return _circle_points(keep)


def is_invariant_closed(sys, S: ClosedSet) -> bool:
    return set_equal(sys, largest_invariant_subset(sys, S), S)


def is_free(sys) -> bool:
    """No periodic points in any component."""
    if isinstance(sys, UnionSystem):
        return all(is_free(c) for c in sys.components)
    if isinstance(sys, RotationSystem):
        return sys.irrational
    return False


def is_minimal(sys) -> bool:
    """Every orbit dense."""
    if isinstance(sys, UnionSystem):
        if len(sys.components) == 1:
            return is_minimal(sys.components[0])
        return False
    if isinstance(sys, FiniteSystem):
        return _orbit_len(sys, 0) == sys.size
    if isinstance(sys, ShiftSystem):
        return False
    return sys.irrational


def some_periodic_point(sys) -> Point | None:
    """A periodic point, or None on free systems."""
    if isinstance(sys, UnionSystem):
        for i, c in enumerate(sys.components):
            x = some_periodic_point(c)
            if x is not None:
                return in_component(i, x)
        return None
    if isinstance(sys, FiniteSystem):
        return Point(0)
    if isinstance(sys, ShiftSystem):
        return Point(INF)
    if not sys.irrational:
        return Point(Fraction(0))
    return None


def some_aperiodic_point(sys) -> Point | None:
    if isinstance(sys, UnionSystem):
        for i, c in enumerate(sys.components):
            x = some_aperiodic_point(c)
            if x is not None:
                return in_component(i, x)
        return None
    if isinstance(sys, ShiftSystem):
        return Point(0)
    if isinstance(sys, RotationSystem) and sys.irrational:
        return Point(0.0)
    return None


def cover_representatives(sys, S: ClosedSet) -> list[Point]:
    """Orbit representatives whose orbit closures union up to S.

    Defined for invariant closed S.  The answer is minimal in the sense
    that representatives with orbit closures already covered are dropped
    (an aperiodic shift orbit covers the fixed point at infinity).
    """
    _check_set(sys, S)
    if isinstance(sys, UnionSystem):
        out = []
        for i, (c, p) in enumerate(zip(sys.components, S.parts)):
            out.extend(in_component(i, x) for x in cover_representatives(c, p))
        return out
    if isinstance(sys, FiniteSystem):
        seen: set = set()
        reps = []
        for i in sorted(S.points):
            if i not in seen:
                reps.append(Point(i))
                seen.update(q.coord for q in orbit_points(sys, Point(i)))
        return reps
    if isinstance(sys, ShiftSystem):
        if S.cofinite:
            if S.ints:
                raise UnsupportedQueryError("shift set is not invariant")
            return [Point(0)]
        if S.ints:
            raise UnsupportedQueryError("shift set is not invariant")
        return [Point(INF)] if S.has_inf else []
    if S.whole:
        if sys.irrational:
            return [Point(0.0)]
        raise UnsupportedQueryError(
            "the whole circle is not a finite union of orbit closures for a rational rotation"
        )
    if sys.irrational and S.turns:
        raise UnsupportedQueryError("finite circle sets are not invariant under an irrational rotation")
    return _rational_orbit_reps(sys, S.turns)


def _rational_orbit_reps(sys, turns) -> list[Point]:
    reps: list[Point] = []
    for t in turns:
        if not any(any(turns_eq(q.coord, t) for q in orbit_points(sys, r)) for r in reps):
            reps.append(Point(t))
    return reps


def all_orbits_in(sys, S: ClosedSet) -> list[Point]:
    """One representative for every orbit contained in S.

    Raises when the orbit family is infinite (rotation components whose
    part of S is the whole circle).
    """
    _check_set(sys, S)
    if isinstance(sys, UnionSystem):
        out = []
        for i, (c, p) in enumerate(zip(sys.components, S.parts)):
            out.extend(in_component(i, x) for x in all_orbits_in(c, p))
        return out
    if isinstance(sys, FiniteSystem):
        return cover_representatives(sys, S)
    if isinstance(sys, ShiftSystem):
        if S.cofinite:
            reps = [Point(0)]
            if S.has_inf:
                reps.append(Point(INF))
            return reps
        return [Point(INF)] if S.has_inf else []
    if S.whole:
        raise UnsupportedQueryError("a full circle carries infinitely many orbits")
    if sys.irrational:
        raise UnsupportedQueryError("finite circle sets contain no full orbit under an irrational rotation")
    return _rational_orbit_reps(sys, S.turns)


def enumerate_invariant_closed_sets(sys) -> list[ClosedSet] | None:
    """All invariant closed subsets, or None when there are infinitely many."""
    if isinstance(sys, FiniteSystem):
        if sys.size > 16:
            raise UnsupportedQueryError("subset enumeration capped at 16 points")
        reps = cover_representatives(sys, whole_space(sys))
        orbits = [frozenset(q.coord for q in orbit_points(sys, r)) for r in reps]
        sets: list[ClosedSet] = []
        for mask in range(1 << len(orbits)):
            pts: frozenset = frozenset()
            for b, orb in enumerate(orbits):
                if mask >> b & 1:
                    pts |= orb
            sets.append(FiniteSet(pts))
        return sets
    if isinstance(sys, ShiftSystem):
        return [empty_set(sys), ShiftSet(frozenset(), True), whole_space(sys)]
    if isinstance(sys, RotationSystem):
        if sys.irrational:
            return [empty_set(sys), whole_space(sys)]
        return None
    subs = [enumerate_invariant_closed_sets(c) for c in sys.components]
    if any(s is None for s in subs):
        return None
    out = [UnionSet(())]
    for s in subs:
        out = [UnionSet(u.parts + (p,)) for u in out for p in s]
    return out


def enumerate_points(sys) -> list[Point]:
    """All points, for systems built from finite components only."""
    if isinstance(sys, FiniteSystem):
        return [Point(i) for i in range(sys.size)]
    if isinstance(sys, UnionSystem):
        out = []
        for i, c in enumerate(sys.components):
            out.extend(in_component(i, x) for x in enumerate_points(c))
        return out
    raise UnsupportedQueryError("point enumeration needs finite components")
