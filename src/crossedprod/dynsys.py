"""Desk-scale models of compact dynamical systems and of their functions.

Four models are supported: a finite permutation system, the one-point
compactification of the integer shift, a circle rotation (with a declared
irrationality flag), and finite disjoint unions of these.  Each system class
owns its model: point checks and sigma iteration, closed subsets in a
normal form closed under the set algebra the hull/kernel machinery needs,
and the kernels of the function model :class:`Func`.  The union implements
every method once, as a product over its components.  The module-level
functions check their arguments and call the method.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache

from . import scalars as sc
from .errors import ModeMismatchError, SystemMismatchError, UnsupportedQueryError
from .records import record

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


@record
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
# Points


@record
class Point:
    """A point of a system: component path plus leaf coordinate.

    The path is empty for non-union systems; for unions it lists the
    component index at each nesting level.  The coordinate is an int for
    finite systems, an int or INF for the shift, and a turns value
    (Fraction or float in [0,1)) for rotations.
    """

    coord: object
    path: tuple[int, ...] = ()

    def __init__(self, coord, path=()):  # written out: the most built record
        object.__setattr__(self, "coord", coord)
        object.__setattr__(self, "path", path)

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


# ---------------------------------------------------------------------------
# Closed sets


@record
class FiniteSet:
    points: frozenset

    def __repr__(self):
        return "{" + ",".join(str(i) for i in sorted(self.points)) + "}"

    def is_empty(self) -> bool:
        return not self.points


@record
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

    def is_empty(self) -> bool:
        return not self.cofinite and not self.ints and not self.has_inf


@record
class CircleSet:
    whole: bool
    turns: tuple = ()

    def __repr__(self):
        if self.whole:
            return "circle"
        return "{" + ",".join(_fmt_turn(t) for t in self.turns) + "}"

    def is_empty(self) -> bool:
        return not self.whole and not self.turns


def _fmt_turn(t):
    return str(t) if isinstance(t, Fraction) else repr(float(t))


@record
class UnionSet:
    parts: tuple

    def __repr__(self):
        return "u[" + "; ".join(repr(p) for p in self.parts) + "]"

    def is_empty(self) -> bool:
        return all(p.is_empty() for p in self.parts)


def _circle_points(turns_iter) -> CircleSet:
    uniq: list = []
    for t in turns_iter:
        t = t % 1 if isinstance(t, Fraction) else float(t) % 1.0
        if not any(turns_eq(t, u) for u in uniq):
            uniq.append(t)
    return CircleSet(False, tuple(sorted(uniq, key=float)))


# ---------------------------------------------------------------------------
# Functions


@record
class Func:
    """A function in the C(X) model of its system.

    data layout:
      finite system   -> tuple of scalars, one per point
      shift system    -> (value at infinity, {n: value} finite exceptions)
      rotation system -> {frequency: coefficient} trigonometric polynomial
      union system    -> tuple of component Funcs

    ``Func(system, data)`` validates its data and decides the numeric mode
    once; the kernels build their results through :func:`_func`, which
    trusts its inputs.
    """

    __slots__ = ("system", "data", "exact")  # exact: a slot, not a field
    system: object
    data: object

    def __init__(self, system, data):
        data, exact = system.normal_form(data)
        _set_system(self, system)
        _set_data(self, data)
        _set_exact(self, exact)


_alloc = object.__new__
_set_system = Func.system.__set__
_set_data = Func.data.__set__
_set_exact = Func.exact.__set__


def _func(system, data, exact: bool) -> Func:
    """Trusted constructor: data is already in normal form and in one mode."""
    f = _alloc(Func)
    _set_system(f, system)
    _set_data(f, data)
    _set_exact(f, exact)
    return f


def _shift(system, v_inf, exc: dict, exact: bool) -> Func:
    """Trusted shift result: drops exceptions equal to the value at infinity."""
    return _func(system, (v_inf, {n: v for n, v in exc.items() if v != v_inf}), exact)


def _trig(system, coeffs: dict) -> Func:
    """Trusted rotation result: drops zero coefficients (always float)."""
    return _func(system, {k: c for k, c in coeffs.items() if c}, False)


def grid_size(f: Func) -> int:
    maxfreq = max((abs(k) for k in f.data), default=0)
    return 8 * maxfreq + 16


@lru_cache(maxsize=8192)
def rotation_phase(system: RotationSystem, m: int) -> complex:
    """exp(2 pi i theta m), reduced mod 1 before exponentiating."""
    return cmath.exp(2j * math.pi * float(system.theta_times_mod1(m)))


# ---------------------------------------------------------------------------
# Systems


class _Leaf:
    """Methods shared by the three leaf models.

    A point handed to a leaf method may carry the path of the union the
    leaf sits in: leaf methods read only its coordinate and keep its path.
    """

    def leaf(self, path: tuple[int, ...]):
        if path:
            raise SystemMismatchError("point path descends below a leaf system")
        return self

    def orbit_points(self, x: Point) -> list[Point]:
        return [self.apply_sigma(x, k) for k in range(self.period(x))]

    def orbit_closure(self, x: Point):
        if self.period(x) is None:
            # aperiodic orbits (shift integers, irrational rotations) are dense
            return self.whole_space()
        return self.points_to_set(self.orbit_points(x))

    def orbit_reps(self) -> list[Point]:
        whole = self.whole_space()
        try:
            return self.all_orbits_in(whole)
        except UnsupportedQueryError:
            return self.cover_representatives(whole)

    # Finite and shift functions are values at points, changed pointwise
    # through _map and _combine; the rotation's coefficient model overrides.

    def add(self, f: Func, g: Func) -> Func:
        return self._combine(f, g, operator.add)

    def mul(self, f: Func, g: Func) -> Func:
        return self._combine(f, g, operator.mul)

    def scale(self, c, f: Func) -> Func:
        return self._map(f, lambda v: c * v, f.exact)

    def conj(self, f: Func) -> Func:
        return self._map(f, sc.conj, f.exact)

    def demote(self, f: Func) -> Func:
        return self._map(f, complex, False)

    def inverse(self, f: Func):
        if any(sc.is_zero(v) for v in self.scalars(f.data)):
            return None
        one = sc.one_like(f.exact)
        return self._map(f, lambda v: one / v, f.exact)

    def supnorm_bounds(self, f: Func) -> tuple[float, float]:
        m = max((abs(v) for v in self.scalars(f.data)), default=0.0)
        return (m, m)

    def algnorm(self, f: Func) -> float:
        return self.supnorm_bounds(f)[0]

    def exceptional_ints(self, f: Func) -> set:
        return set()


@record
class FiniteSystem(_Leaf):
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

    # points and dynamics

    def check_coord(self, c) -> None:
        if not (isinstance(c, int) and 0 <= c < self.size):
            raise SystemMismatchError(f"{c!r} is not a point of the finite system")

    def apply_sigma(self, x: Point, k: int) -> Point:
        return Point(sigma_power_map(self, k % _lcm_order(self))[x.coord], x.path)

    def period(self, x: Point):
        return _orbit_len(self, x.coord)

    # closed sets

    def empty_set(self):
        return FiniteSet(frozenset())

    def whole_space(self):
        return FiniteSet(frozenset(range(self.size)))

    def check_set(self, S) -> None:
        if not isinstance(S, FiniteSet):
            raise SystemMismatchError("expected a finite-system set")
        if any(not (0 <= i < self.size) for i in S.points):
            raise SystemMismatchError("set mentions points outside the system")

    def contains(self, S, x: Point) -> bool:
        return x.coord in S.points

    def union(self, A, B):
        return FiniteSet(A.points | B.points)

    def intersect(self, A, B):
        return FiniteSet(A.points & B.points)

    def subset(self, A, B) -> bool:
        return A.points <= B.points

    def points_to_set(self, pts):
        return FiniteSet(frozenset(p.coord for p in pts))

    def largest_invariant_subset(self, S):
        return FiniteSet(frozenset(
            i for i in S.points
            if all(q.coord in S.points for q in self.orbit_points(Point(i)))
        ))

    def cover_representatives(self, S) -> list[Point]:
        seen: set = set()
        reps = []
        for i in sorted(S.points):
            if i not in seen:
                reps.append(Point(i))
                seen.update(q.coord for q in self.orbit_points(Point(i)))
        return reps

    all_orbits_in = cover_representatives

    def invariant_closed_sets(self):
        if self.size > 16:
            raise UnsupportedQueryError("subset enumeration capped at 16 points")
        orbits = [frozenset(q.coord for q in self.orbit_points(r))
                  for r in self.cover_representatives(self.whole_space())]
        sets = []
        for mask in range(1 << len(orbits)):
            pts: frozenset = frozenset()
            for b, orb in enumerate(orbits):
                if mask >> b & 1:
                    pts |= orb
            sets.append(FiniteSet(pts))
        return sets

    def points(self) -> list[Point]:
        return [Point(i) for i in range(self.size)]

    def is_free(self) -> bool:
        return False

    def is_minimal(self) -> bool:
        return _orbit_len(self, 0) == self.size

    def some_periodic_point(self):
        return Point(0)

    def restriction(self, S):
        keep = sorted(S.points)
        index = {old: new for new, old in enumerate(keep)}
        sub = FiniteSystem(len(keep), tuple(index[self.sigma[old]] for old in keep))

        def pmap(x: Point) -> Point:
            if x.coord not in index:
                raise SystemMismatchError("point outside the subset")
            return Point(index[x.coord])

        def fmap(f: Func) -> Func:
            return Func(sub, tuple(f.data[old] for old in keep))

        return sub, pmap, fmap

    # functions: a tuple of values, one per point

    def normal_form(self, data):
        data = tuple(data)
        if len(data) != self.size:
            raise SystemMismatchError("value vector length mismatch")
        return data, sc.check_same_mode(data)

    def scalars(self, data):
        return data

    def const(self, value) -> Func:
        return Func(self, (value,) * self.size)

    def _map(self, f: Func, fn, exact: bool) -> Func:
        return _func(self, tuple(map(fn, f.data)), exact)

    def _combine(self, f: Func, g: Func, op) -> Func:
        return _func(self, tuple(map(op, f.data, g.data)), f.exact)

    def compose_sigma(self, f: Func, k: int) -> Func:
        m = sigma_power_map(self, k % _lcm_order(self))
        return _func(self, tuple(map(f.data.__getitem__, m)), f.exact)

    def eval(self, f: Func, x: Point):
        return f.data[x.coord]

    def zero_set(self, f: Func, tol: float):
        return FiniteSet(frozenset(i for i, v in enumerate(f.data) if sc.is_zero(v, tol)))

    def vanishes_on(self, f: Func, S, tol: float) -> bool:
        return all(sc.is_zero(f.data[i], tol) for i in S.points)

    def point_indicator(self, x: Point, exact: bool) -> Func:
        one, zero = sc.one_like(exact), sc.zero_like(exact)
        return _func(self, tuple(one if i == x.coord else zero for i in range(self.size)), exact)

    def separating_func(self, S, x: Point, exact: bool) -> Func:
        return self.point_indicator(x, exact)

    def cx_basis(self, ints_window, max_freq: int, exact: bool) -> list[Func]:
        return [self.point_indicator(Point(i), exact) for i in range(self.size)]

    def zero_on(self, S, f: Func) -> Func:
        zero = sc.zero_like(f.exact)
        return _func(self, tuple(zero if i in S.points else v for i, v in enumerate(f.data)),
                     f.exact)

    def point_where_nonzero(self, f: Func, tol: float):
        for i, v in enumerate(f.data):
            if not sc.is_zero(v, tol):
                return Point(i)
        return None


@record
class ShiftSystem(_Leaf):
    """n -> n+1 on the one-point compactification of the integers."""

    # points and dynamics

    def check_coord(self, c) -> None:
        if not (c is INF or isinstance(c, int)):
            raise SystemMismatchError(f"{c!r} is not a shift point")

    def apply_sigma(self, x: Point, k: int) -> Point:
        if x.coord is INF:
            return x
        return Point(x.coord + k, x.path)

    def period(self, x: Point):
        return 1 if x.coord is INF else None

    # closed sets

    def empty_set(self):
        return ShiftSet(frozenset())

    def whole_space(self):
        return ShiftSet(frozenset(), has_inf=True, cofinite=True)

    def check_set(self, S) -> None:
        if not isinstance(S, ShiftSet):
            raise SystemMismatchError("expected a shift set")

    def contains(self, S, x: Point) -> bool:
        if x.coord is INF:
            return S.has_inf
        return (x.coord not in S.ints) if S.cofinite else (x.coord in S.ints)

    def union(self, A, B):
        if A.cofinite and B.cofinite:
            return ShiftSet(A.ints & B.ints, True, True)
        if A.cofinite or B.cofinite:
            co, fin = (A, B) if A.cofinite else (B, A)
            return ShiftSet(co.ints - fin.ints, True, True)
        return ShiftSet(A.ints | B.ints, A.has_inf or B.has_inf)

    def intersect(self, A, B):
        if A.cofinite and B.cofinite:
            return ShiftSet(A.ints | B.ints, True, True)
        if A.cofinite or B.cofinite:
            co, fin = (A, B) if A.cofinite else (B, A)
            return ShiftSet(fin.ints - co.ints, fin.has_inf)
        return ShiftSet(A.ints & B.ints, A.has_inf and B.has_inf)

    def subset(self, A, B) -> bool:
        if A.cofinite:
            return B.cofinite and B.ints <= A.ints
        if B.cofinite:
            return not (A.ints & B.ints)
        return A.ints <= B.ints and (B.has_inf or not A.has_inf)

    def points_to_set(self, pts):
        ints = frozenset(p.coord for p in pts if p.coord is not INF)
        return ShiftSet(ints, any(p.coord is INF for p in pts))

    def largest_invariant_subset(self, S):
        if S.cofinite and not S.ints:
            return S
        return ShiftSet(frozenset(), S.has_inf)  # only infinity survives

    def cover_representatives(self, S) -> list[Point]:
        if S.ints:
            raise UnsupportedQueryError("shift set is not invariant")
        if S.cofinite:
            return [Point(0)]
        return [Point(INF)] if S.has_inf else []

    def all_orbits_in(self, S) -> list[Point]:
        if S.cofinite:
            return [Point(0), Point(INF)]
        return [Point(INF)] if S.has_inf else []

    def invariant_closed_sets(self):
        return [self.empty_set(), ShiftSet(frozenset(), True), self.whole_space()]

    def points(self) -> list[Point]:
        raise UnsupportedQueryError("point enumeration needs finite components")

    def is_free(self) -> bool:
        return False

    def is_minimal(self) -> bool:
        return False

    def some_periodic_point(self):
        return Point(INF)

    def restriction(self, S):
        if S.cofinite and not S.ints:
            return self, (lambda x: x), (lambda f: f)
        if not S.cofinite and S.has_inf and not S.ints:
            sub = FiniteSystem(1, (0,))

            def pmap(x: Point) -> Point:
                if x.coord is not INF:
                    raise SystemMismatchError("point outside the subset")
                return Point(0)

            def fmap(f: Func) -> Func:
                return Func(sub, (f.data[0],))

            return sub, pmap, fmap
        raise UnsupportedQueryError("shift subsystem must be everything or the fixed point")

    # functions: (value at infinity, {n: value} finite exceptions)

    def normal_form(self, data):
        v_inf, exc = data
        exc = {int(n): v for n, v in exc.items() if v != v_inf}
        return (v_inf, exc), sc.check_same_mode([v_inf, *exc.values()])

    def scalars(self, data):
        return [data[0], *data[1].values()]

    def const(self, value) -> Func:
        return Func(self, (value, {}))

    def _map(self, f: Func, fn, exact: bool) -> Func:
        v, e = f.data
        return _shift(self, fn(v), {n: fn(w) for n, w in e.items()}, exact)

    def _combine(self, f: Func, g: Func, op) -> Func:
        vf, ef = f.data
        vg, eg = g.data
        keys = set(ef) | set(eg)
        return _shift(self, op(vf, vg),
                      {n: op(ef.get(n, vf), eg.get(n, vg)) for n in keys}, f.exact)

    def compose_sigma(self, f: Func, k: int) -> Func:
        # moving the exceptions keeps them distinct from the value at infinity
        v, e = f.data
        return _func(self, (v, {n - k: w for n, w in e.items()}), f.exact)

    def eval(self, f: Func, x: Point):
        v, e = f.data
        return v if x.coord is INF else e.get(x.coord, v)

    def zero_set(self, f: Func, tol: float):
        v, e = f.data
        if sc.is_zero(v, tol):
            excluded = frozenset(n for n, w in e.items() if not sc.is_zero(w, tol))
            return ShiftSet(excluded, True, True)
        return ShiftSet(frozenset(n for n, w in e.items() if sc.is_zero(w, tol)), False)

    def vanishes_on(self, f: Func, S, tol: float) -> bool:
        v, e = f.data
        if S.cofinite:
            if not sc.is_zero(v, tol):
                return False
            return all(sc.is_zero(w, tol) for n, w in e.items() if n not in S.ints)
        ok_inf = not S.has_inf or sc.is_zero(v, tol)
        return ok_inf and all(sc.is_zero(e.get(n, v), tol) for n in S.ints)

    def point_indicator(self, x: Point, exact: bool) -> Func:
        if x.coord is INF:
            raise UnsupportedQueryError("the point at infinity is not isolated")
        return _func(self, (sc.zero_like(exact), {x.coord: sc.one_like(exact)}), exact)

    def separating_func(self, S, x: Point, exact: bool) -> Func:
        if x.coord is not INF:
            return self.point_indicator(x, exact)
        if S.cofinite or S.has_inf:
            raise UnsupportedQueryError("x lies in the closure of S")
        return _func(self, (sc.one_like(exact), {n: sc.zero_like(exact) for n in S.ints}), exact)

    def cx_basis(self, ints_window, max_freq: int, exact: bool) -> list[Func]:
        base = [self.const(sc.one_like(exact))]
        base.extend(self.point_indicator(Point(n), exact) for n in ints_window)
        return base

    def zero_on(self, S, f: Func) -> Func:
        v, e = f.data
        zero = sc.zero_like(f.exact)
        if S.cofinite:
            return _shift(self, zero, {n: e.get(n, v) for n in S.ints}, f.exact)
        if S.has_inf:
            if not S.ints and sc.is_zero(v):
                return f  # the set is just infinity and f already vanishes there
            raise UnsupportedQueryError(
                "projection needs a clopen set; finite shift sets with infinity are not clopen"
            )
        merged = dict(e)
        for n in S.ints:
            merged[n] = zero
        return _shift(self, v, merged, f.exact)

    def point_where_nonzero(self, f: Func, tol: float):
        v, e = f.data
        for n, w in sorted(e.items()):
            if not sc.is_zero(w, tol):
                return Point(n)
        return None if sc.is_zero(v, tol) else Point(INF)

    def exceptional_ints(self, f: Func) -> set:
        return set(f.data[1])


@record
class RotationSystem(_Leaf):
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

    # points and dynamics

    def check_coord(self, c) -> None:
        if not isinstance(c, (Fraction, float, int)):
            raise SystemMismatchError(f"{c!r} is not a rotation point")

    def apply_sigma(self, x: Point, k: int) -> Point:
        step = self.theta_times_mod1(k)
        if isinstance(x.coord, Fraction) and isinstance(step, Fraction):
            return Point((x.coord + step) % 1, x.path)
        return Point((float(x.coord) + float(step)) % 1.0, x.path)

    def period(self, x: Point):
        return None if self.irrational else self.theta.denominator

    # closed sets

    def empty_set(self):
        return CircleSet(False, ())

    def whole_space(self):
        return CircleSet(True)

    def check_set(self, S) -> None:
        if not isinstance(S, CircleSet):
            raise SystemMismatchError("expected a circle set")

    def contains(self, S, x: Point) -> bool:
        return S.whole or any(turns_eq(x.coord, t) for t in S.turns)

    def union(self, A, B):
        if A.whole or B.whole:
            return CircleSet(True)
        return _circle_points(list(A.turns) + list(B.turns))

    def intersect(self, A, B):
        if A.whole:
            return B
        if B.whole:
            return A
        return _circle_points(t for t in A.turns if any(turns_eq(t, u) for u in B.turns))

    def subset(self, A, B) -> bool:
        if B.whole:
            return True
        if A.whole:
            return False
        return all(any(turns_eq(t, u) for u in B.turns) for t in A.turns)

    def points_to_set(self, pts):
        return _circle_points(p.coord for p in pts)

    def largest_invariant_subset(self, S):
        if S.whole:
            return S
        if self.irrational:
            return CircleSet(False, ())
        return _circle_points(
            t for t in S.turns
            if all(self.contains(S, y) for y in self.orbit_points(Point(t)))
        )

    def cover_representatives(self, S) -> list[Point]:
        if S.whole:
            if self.irrational:
                return [Point(0.0)]
            raise UnsupportedQueryError(
                "the whole circle is not a finite union of orbit closures for a rational rotation"
            )
        if self.irrational and S.turns:
            raise UnsupportedQueryError(
                "finite circle sets are not invariant under an irrational rotation")
        return self._rational_orbit_reps(S.turns)

    def all_orbits_in(self, S) -> list[Point]:
        if S.whole:
            raise UnsupportedQueryError("a full circle carries infinitely many orbits")
        if self.irrational:
            raise UnsupportedQueryError(
                "finite circle sets contain no full orbit under an irrational rotation")
        return self._rational_orbit_reps(S.turns)

    def _rational_orbit_reps(self, turns) -> list[Point]:
        reps: list[Point] = []
        for t in turns:
            if not any(any(turns_eq(q.coord, t) for q in self.orbit_points(r)) for r in reps):
                reps.append(Point(t))
        return reps

    def invariant_closed_sets(self):
        if self.irrational:
            return [self.empty_set(), self.whole_space()]
        return None

    def points(self) -> list[Point]:
        raise UnsupportedQueryError("point enumeration needs finite components")

    def is_free(self) -> bool:
        return self.irrational

    def is_minimal(self) -> bool:
        return self.irrational

    def some_periodic_point(self):
        return None if self.irrational else Point(Fraction(0))

    def restriction(self, S):
        if S.whole:
            return self, (lambda x: x), (lambda f: f)
        raise UnsupportedQueryError("rotation subsystems are only the whole circle")

    # functions: {frequency: coefficient} trigonometric polynomials, float only

    def normal_form(self, data):
        coeffs = {int(k): c for k, c in data.items() if not sc.is_zero(c)}
        if any(sc.is_exact(c) for c in coeffs.values()):
            raise ModeMismatchError("the rotation model runs in float mode")
        return coeffs, False

    def scalars(self, data):
        return data.values()

    def const(self, value) -> Func:
        return Func(self, {0: value})

    def add(self, f: Func, g: Func) -> Func:
        keys = set(f.data) | set(g.data)
        return _trig(self, {k: f.data.get(k, 0j) + g.data.get(k, 0j) for k in keys})

    def mul(self, f: Func, g: Func) -> Func:
        """Coefficient convolution."""
        out: dict = {}
        for j, a in f.data.items():
            for k, b in g.data.items():
                out[j + k] = out.get(j + k, 0j) + a * b
        return _trig(self, out)

    def scale(self, c, f: Func) -> Func:
        return _trig(self, {k: c * w for k, w in f.data.items()})

    def conj(self, f: Func) -> Func:
        return _trig(self, {-k: sc.conj(c) for k, c in f.data.items()})

    def compose_sigma(self, f: Func, k: int) -> Func:
        return _trig(self, {j: c * rotation_phase(self, k * j) for j, c in f.data.items()})

    def eval(self, f: Func, x: Point):
        t = float(x.coord)
        return sum(
            (c * cmath.exp(2j * math.pi * ((t * k) % 1.0)) for k, c in f.data.items()),
            0j,
        )

    def supnorm_bounds(self, f: Func) -> tuple[float, float]:
        upper = self.algnorm(f)
        G = grid_size(f)
        lower = max(
            abs(self.eval(f, Point(Fraction(j, G)))) for j in range(G)
        ) if f.data else 0.0
        return (lower, upper)

    def algnorm(self, f: Func) -> float:
        """The coefficient-sum (Wiener) norm."""
        return float(sum(abs(c) for c in f.data.values()))

    def zero_set(self, f: Func, tol: float):
        if not f.data:
            return CircleSet(True)
        turns = ((cmath.phase(r) / (2 * math.pi)) % 1.0 for r in sc.unit_circle_roots(f.data, tol))
        # a root at 1 with a tiny negative imaginary part gives -tiny % 1.0 == 1.0: turn 0
        return CircleSet(False, tuple(sorted(t if t < 1.0 else 0.0 for t in turns)))

    def vanishes_on(self, f: Func, S, tol: float) -> bool:
        if S.whole:
            return all(sc.is_zero(c, tol) for c in f.data.values())
        return all(sc.is_zero(self.eval(f, Point(t)), tol) for t in S.turns)

    def point_indicator(self, x: Point, exact: bool) -> Func:
        raise UnsupportedQueryError("circle points are not isolated")

    def separating_func(self, S, x: Point, exact: bool) -> Func:
        if S.whole:
            raise UnsupportedQueryError("no nonzero function vanishes on the whole circle")
        coeffs = {0: 1 + 0j}
        for t in S.turns:
            root = cmath.exp(2j * math.pi * float(t))
            new: dict = {}
            for k, c in coeffs.items():
                new[k + 1] = new.get(k + 1, 0j) + c
                new[k] = new.get(k, 0j) - c * root
            coeffs = new
        return _trig(self, coeffs)

    def cx_basis(self, ints_window, max_freq: int, exact: bool) -> list[Func]:
        return [_trig(self, {k: 1 + 0j}) for k in range(max_freq + 1)]

    def demote(self, f: Func) -> Func:
        return f

    def inverse(self, f: Func):
        if len(f.data) != 1:
            return None
        (k, c), = f.data.items()
        return _trig(self, {-k: 1.0 / c})

    def zero_on(self, S, f: Func) -> Func:
        if S.whole:
            return _trig(self, {})
        if not S.turns:
            return f
        raise UnsupportedQueryError("rotation projection supports only the empty or full circle")

    def point_where_nonzero(self, f: Func, tol: float):
        if not f.data:
            return None
        G = grid_size(f)
        best, best_val = None, tol
        for j in range(G):
            x = Point(Fraction(j, G))
            v = abs(self.eval(f, x))
            if v > best_val:
                best, best_val = x, v
        return best


@record
class UnionSystem:
    """Disjoint union acting componentwise.

    Every method is the product of the component methods: it maps over the
    components, follows a point's path into its component, or concatenates
    the component answers lifted with :func:`in_component`.
    """

    components: tuple

    def __post_init__(self):
        if not self.components:
            raise ValueError("union of no systems")

    def leaf(self, path: tuple[int, ...]):
        if not path:
            raise SystemMismatchError("point path stops at a union, not a leaf")
        if not 0 <= path[0] < len(self.components):
            raise SystemMismatchError("component index out of range")
        return self.components[path[0]].leaf(path[1:])

    def _split(self, x: Point):
        """(index, component, the point within that component)."""
        i = x.path[0]
        return i, self.components[i], Point(x.coord, x.path[1:])

    @staticmethod
    def _lifted(answers) -> list[Point]:
        return [in_component(i, x) for i, xs in enumerate(answers) for x in xs]

    @staticmethod
    def _first(answers):
        for i, x in enumerate(answers):
            if x is not None:
                return in_component(i, x)
        return None

    # closed sets

    def empty_set(self):
        return UnionSet(tuple(c.empty_set() for c in self.components))

    def whole_space(self):
        return UnionSet(tuple(c.whole_space() for c in self.components))

    def check_set(self, S) -> None:
        if not isinstance(S, UnionSet) or len(S.parts) != len(self.components):
            raise SystemMismatchError("union set arity mismatch")
        for c, p in zip(self.components, S.parts):
            c.check_set(p)

    def contains(self, S, x: Point) -> bool:
        i, c, y = self._split(x)
        return c.contains(S.parts[i], y)

    def union(self, A, B):
        return UnionSet(tuple(
            c.union(a, b) for c, a, b in zip(self.components, A.parts, B.parts)))

    def intersect(self, A, B):
        return UnionSet(tuple(
            c.intersect(a, b) for c, a, b in zip(self.components, A.parts, B.parts)))

    def subset(self, A, B) -> bool:
        return all(c.subset(a, b) for c, a, b in zip(self.components, A.parts, B.parts))

    def points_to_set(self, pts):
        return UnionSet(tuple(
            c.points_to_set([Point(p.coord, p.path[1:]) for p in pts if p.path[0] == i])
            for i, c in enumerate(self.components)
        ))

    def orbit_closure(self, x: Point):
        i, c, y = self._split(x)
        parts = [d.empty_set() for d in self.components]
        parts[i] = c.orbit_closure(y)
        return UnionSet(tuple(parts))

    def largest_invariant_subset(self, S):
        return UnionSet(tuple(
            c.largest_invariant_subset(p) for c, p in zip(self.components, S.parts)))

    def cover_representatives(self, S) -> list[Point]:
        """Orbit representatives whose orbit closures union up to the invariant
        closed S, dropping those already covered (a shift integer covers inf)."""
        return self._lifted(
            c.cover_representatives(p) for c, p in zip(self.components, S.parts))

    def all_orbits_in(self, S) -> list[Point]:
        """One representative per orbit in S; raises when there are infinitely many."""
        return self._lifted(c.all_orbits_in(p) for c, p in zip(self.components, S.parts))

    def orbit_reps(self) -> list[Point]:
        return self._lifted(c.orbit_reps() for c in self.components)

    def invariant_closed_sets(self):
        subs = [c.invariant_closed_sets() for c in self.components]
        if any(s is None for s in subs):
            return None
        out = [UnionSet(())]
        for s in subs:
            out = [UnionSet(u.parts + (p,)) for u in out for p in s]
        return out

    def points(self) -> list[Point]:
        return self._lifted(c.points() for c in self.components)

    def is_free(self) -> bool:
        return all(c.is_free() for c in self.components)

    def is_minimal(self) -> bool:
        return len(self.components) == 1 and self.components[0].is_minimal()

    def some_periodic_point(self):
        return self._first(c.some_periodic_point() for c in self.components)

    def restriction(self, S):
        """Restrict componentwise, dropping empty components."""
        kept = [i for i, part in enumerate(S.parts) if not part.is_empty()]
        if not kept:
            raise UnsupportedQueryError("cannot restrict to the empty set")
        built = {i: self.components[i].restriction(S.parts[i]) for i in kept}
        sub = UnionSystem(tuple(built[i][0] for i in kept))
        position = {old: new for new, old in enumerate(kept)}

        def pmap(x: Point) -> Point:
            if not x.path or x.path[0] not in position:
                raise SystemMismatchError("point outside the subset")
            old = x.path[0]
            return in_component(position[old], built[old][1](Point(x.coord, x.path[1:])))

        def fmap(f: Func) -> Func:
            return Func(sub, tuple(built[i][2](f.data[i]) for i in kept))

        return sub, pmap, fmap

    # functions: a tuple of component functions

    def normal_form(self, data):
        parts = tuple(data)
        if len(parts) != len(self.components):
            raise SystemMismatchError("union function arity mismatch")
        for c, p in zip(self.components, parts):
            if p.system != c:
                raise SystemMismatchError("component function on wrong system")
        return parts, sc.check_same_mode(self.scalars(parts))

    def scalars(self, data):
        for p in data:
            yield from p.system.scalars(p.data)

    def const(self, value) -> Func:
        return Func(self, tuple(c.const(value) for c in self.components))

    def embed(self, index: int, part: Func, exact: bool) -> Func:
        """The function equal to part on one component and zero elsewhere."""
        parts = [c.const(sc.zero_like(exact)) for c in self.components]
        parts[index] = part
        return Func(self, tuple(parts))

    def add(self, f: Func, g: Func) -> Func:
        return _func(self, tuple(
            c.add(a, b) for c, a, b in zip(self.components, f.data, g.data)), f.exact)

    def mul(self, f: Func, g: Func) -> Func:
        return _func(self, tuple(
            c.mul(a, b) for c, a, b in zip(self.components, f.data, g.data)), f.exact)

    def scale(self, s, f: Func) -> Func:
        return _func(self, tuple(c.scale(s, p) for c, p in zip(self.components, f.data)),
                     f.exact)

    def conj(self, f: Func) -> Func:
        return _func(self, tuple(c.conj(p) for c, p in zip(self.components, f.data)), f.exact)

    def compose_sigma(self, f: Func, k: int) -> Func:
        return _func(self, tuple(c.compose_sigma(p, k) for c, p in zip(self.components, f.data)),
                     f.exact)

    def eval(self, f: Func, x: Point):
        i, c, y = self._split(x)
        return c.eval(f.data[i], y)

    def supnorm_bounds(self, f: Func) -> tuple[float, float]:
        los, his = zip(*(c.supnorm_bounds(p) for c, p in zip(self.components, f.data)))
        return (max(los), max(his))

    def algnorm(self, f: Func) -> float:
        return max(c.algnorm(p) for c, p in zip(self.components, f.data))

    def zero_set(self, f: Func, tol: float):
        return UnionSet(tuple(c.zero_set(p, tol) for c, p in zip(self.components, f.data)))

    def vanishes_on(self, f: Func, S, tol: float) -> bool:
        return all(c.vanishes_on(p, s, tol)
                   for c, p, s in zip(self.components, f.data, S.parts))

    def point_indicator(self, x: Point, exact: bool) -> Func:
        i, c, y = self._split(x)
        return self.embed(i, c.point_indicator(y, exact), exact)

    def separating_func(self, S, x: Point, exact: bool) -> Func:
        i, c, y = self._split(x)
        return self.embed(i, c.separating_func(S.parts[i], y, exact), exact)

    def cx_basis(self, ints_window, max_freq: int, exact: bool) -> list[Func]:
        return [self.embed(i, b, exact) for i, c in enumerate(self.components)
                for b in c.cx_basis(ints_window, max_freq, exact)]

    def demote(self, f: Func) -> Func:
        return _func(self, tuple(c.demote(p) for c, p in zip(self.components, f.data)), False)

    def inverse(self, f: Func):
        parts = tuple(c.inverse(p) for c, p in zip(self.components, f.data))
        if any(p is None for p in parts):
            return None
        return _func(self, parts, f.exact)

    def zero_on(self, S, f: Func) -> Func:
        return _func(self, tuple(
            c.zero_on(s, p) for c, s, p in zip(self.components, S.parts, f.data)), f.exact)

    def point_where_nonzero(self, f: Func, tol: float):
        return self._first(
            c.point_where_nonzero(p, tol) for c, p in zip(self.components, f.data))

    def exceptional_ints(self, f: Func) -> set:
        return set().union(*(c.exceptional_ints(p) for c, p in zip(self.components, f.data)))


# ---------------------------------------------------------------------------
# Finite-system caches (module level: their cache_info() is read by tools)


def _orbit_len(leaf: FiniteSystem, i: int) -> int:
    j = leaf.sigma[i]
    n = 1
    while j != i:
        j = leaf.sigma[j]
        n += 1
    return n


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


@lru_cache(maxsize=1024)
def _lcm_order(leaf: FiniteSystem) -> int:
    order = 1
    for i in range(leaf.size):
        order = math.lcm(order, _orbit_len(leaf, i))
    return order


# ---------------------------------------------------------------------------
# Checked entry points


def validate_point(sys, x: Point):
    """Check that x is a point of sys; returns the leaf system it lies in."""
    leaf = sys.leaf(x.path)
    leaf.check_coord(x.coord)
    return leaf


def apply_sigma(sys, x: Point, k: int) -> Point:
    """k-th iterate of the homeomorphism applied to x."""
    return validate_point(sys, x).apply_sigma(x, k)


def period(sys, x: Point):
    """Least p >= 1 with sigma^p(x) = x, or None for aperiodic points."""
    return validate_point(sys, x).period(x)


def is_periodic(sys, x: Point) -> bool:
    return period(sys, x) is not None


def orbit_points(sys, x: Point) -> list[Point]:
    """The forward orbit of a periodic point, starting at x."""
    leaf = validate_point(sys, x)
    if leaf.period(x) is None:
        raise UnsupportedQueryError("orbit_points needs a periodic point")
    return leaf.orbit_points(x)


def empty_set(sys):
    return sys.empty_set()


def whole_space(sys):
    return sys.whole_space()


def set_equal(sys, A, B) -> bool:
    sys.check_set(A)
    sys.check_set(B)
    return sys.subset(A, B) and sys.subset(B, A)


def orbit_closure(sys, x: Point):
    """Closure of the orbit of x."""
    validate_point(sys, x)
    return sys.orbit_closure(x)


def is_invariant_closed(sys, S) -> bool:
    sys.check_set(S)
    inv = sys.largest_invariant_subset(S)
    return sys.subset(inv, S) and sys.subset(S, inv)


def is_free(sys) -> bool:
    """No periodic points in any component."""
    return sys.is_free()


def is_minimal(sys) -> bool:
    """Every orbit dense."""
    return sys.is_minimal()
