"""The finite permutation model; its functions are value vectors, in either mode."""

from __future__ import annotations

import math

from . import scalars as sc
from .dynsys import Func, Point, _func, _Leaf
from .errors import SystemMismatchError, UnsupportedQueryError
from .records import record


@record
class FiniteSet:
    points: frozenset

    def __repr__(self):
        return "{" + ",".join(str(i) for i in sorted(self.points)) + "}"

    def is_empty(self) -> bool:
        return not self.points


@record
class FiniteSystem(_Leaf):
    """Permutation dynamics on {0, ..., size-1}.

    The order of sigma and the powers of sigma asked for are cached on the
    instance, in slots that are not fields: equality, hashing and repr see
    only size and sigma.
    """

    __slots__ = ("size", "sigma", "_order", "_powers")
    size: int
    sigma: tuple[int, ...]
    kind, func_tag = "finite", "f"

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("finite system needs at least one point")
        if sorted(self.sigma) != list(range(self.size)):
            raise ValueError("sigma is not a permutation of the point set")
        order = math.lcm(*{self.period(Point(i)) for i in range(self.size)})
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_powers", {0: tuple(range(self.size))})

    def _power(self, k: int) -> tuple:
        """The permutation sigma^k as an image tuple."""
        k %= self._order
        m = self._powers.get(k)
        if m is None:
            m = self._powers[0]
            for _ in range(k):
                m = tuple(self.sigma[i] for i in m)
            self._powers[k] = m
        return m

    # points and dynamics

    def check_coord(self, c) -> None:
        if not (isinstance(c, int) and 0 <= c < self.size):
            raise SystemMismatchError(f"{c!r} is not a point of the finite system")

    def apply_sigma(self, x: Point, k: int) -> Point:
        return Point(self._power(k)[x.coord], x.path)

    def period(self, x: Point):
        i = x.coord
        j, n = self.sigma[i], 1
        while j != i:
            j, n = self.sigma[j], n + 1
        return n

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

    def is_minimal(self) -> bool:
        return self.period(Point(0)) == self.size

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

    # the config declaration and the function literal, written and read

    def declaration(self, pad: str) -> str:
        return f"finite {{ points {self.size} sigma {' '.join(map(str, self.sigma))} }}"

    @classmethod
    def read_declaration(cls, s):
        points = sigma = None
        while not s.accept("}"):
            if s.expect_name("points", "sigma").text == "points":
                points = s.integer()
            else:
                sigma = []
                while s.peek().kind == "num":
                    sigma.append(s.integer())
        if points is None or sigma is None:
            s.fail("finite system needs points and sigma")
        return cls(points, tuple(sigma))

    def literal(self, f: Func) -> str:
        return "f{" + ",".join(f"{i}:{sc.render_scalar(v)}" for i, v in enumerate(f.data)) + "}"

    def read_func(self, s, exact: bool) -> Func:
        tag = s.toks[s.pos - 1]  # a point out of range is reported at the tag
        vals = [sc.zero_like(exact)] * self.size
        for k, v in s.braced(lambda: s.entry(exact)):
            if not 0 <= k < self.size:
                s.fail(f"point {k} outside the system", at=tag)
            vals[k] = v
        return Func(self, tuple(vals))

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
        return _func(self, tuple(map(f.data.__getitem__, self._power(k))), f.exact)

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

    # random functions, for the property suites

    def random_func(self, rng, draw) -> Func:
        return Func(self, tuple(draw() for _ in range(self.size)))

    def random_vanishing_on(self, S, rng, draw, zero) -> Func:
        return Func(self, tuple(zero if i in S.points else draw() for i in range(self.size)))
