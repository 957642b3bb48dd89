"""The compactified shift model; its functions are perturbed constants, in either mode."""

from __future__ import annotations

from . import scalars as sc
from .dynsys import INF, Func, Point, _func, _Leaf
from .errors import SystemMismatchError, UnsupportedQueryError
from .records import record


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


def _shift(system, v_inf, exc: dict, exact: bool) -> Func:
    """Trusted shift result: drops exceptions equal to the value at infinity."""
    return _func(system, (v_inf, {n: v for n, v in exc.items() if v != v_inf}), exact)


@record
class ShiftSystem(_Leaf):
    """n -> n+1 on the one-point compactification of the integers."""

    kind, func_tag, set_words = "shift", "sh", ("co",)

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

    def is_minimal(self) -> bool:
        return False

    def some_periodic_point(self):
        return Point(INF)

    def restriction(self, S):
        if S.cofinite and not S.ints:
            return self, (lambda x: x), (lambda f: f)
        if not S.cofinite and S.has_inf and not S.ints:
            from .finite import FiniteSystem
            sub = FiniteSystem(1, (0,))

            def pmap(x: Point) -> Point:
                if x.coord is not INF:
                    raise SystemMismatchError("point outside the subset")
                return Point(0)

            def fmap(f: Func) -> Func:
                return Func(sub, (f.data[0],))

            return sub, pmap, fmap
        raise UnsupportedQueryError("shift subsystem must be everything or the fixed point")

    # the config declaration, the function literal and co{...}, written and read

    def declaration(self, pad: str) -> str:
        return "shift { }"

    @classmethod
    def read_declaration(cls, s):
        s.expect("}")
        return cls()

    def literal(self, f: Func) -> str:
        v, e = f.data
        scalar = sc.render_scalar
        items = [f"inf:{scalar(v)}", *(f"{n}:{scalar(e[n])}" for n in sorted(e))]
        return "sh{" + ",".join(items) + "}"

    def read_func(self, s, exact: bool) -> Func:
        s.expect("{")
        s.expect_name("inf")
        s.expect(":")
        v_inf = s.scalar(exact)
        exc = {}
        while s.accept(","):
            n, v = s.entry(exact)
            exc[n] = v
        s.expect("}")
        return Func(self, (v_inf, exc))

    def read_set(self, s, word: str):
        """co{n, ...}: the set's repr when it is cofinite."""
        return ShiftSet(frozenset(s.braced(s.integer)), True, True)

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

    # random functions, for the property suites

    def random_func(self, rng, draw) -> Func:
        exc = {rng.randint(-3, 3): draw() for _ in range(rng.randint(0, 3))}
        return Func(self, (draw(), exc))

    def random_vanishing_on(self, S, rng, draw, zero) -> Func:
        if S.cofinite:
            return Func(self, (zero, {n: draw() for n in S.ints}))
        exc = {n: zero for n in S.ints}
        v = zero if S.has_inf else draw()
        for _ in range(rng.randint(0, 3 if S.has_inf else 2)):
            n = rng.randint(-3, 3)
            if n not in exc:
                exc[n] = draw()
        return Func(self, (v, exc))
