"""Finite disjoint unions of systems; a function is a tuple of component functions."""

from __future__ import annotations

from . import scalars as sc
from .dynsys import Func, Point, _func, _Model, in_component
from .errors import SystemMismatchError, UnsupportedQueryError
from .records import record


@record
class UnionSet:
    parts: tuple

    def __repr__(self):
        return "u[" + "; ".join(repr(p) for p in self.parts) + "]"

    def is_empty(self) -> bool:
        return all(p.is_empty() for p in self.parts)


@record
class UnionSystem(_Model):
    """Disjoint union acting componentwise.

    Every method is the product of the component methods: it maps over the
    components, follows a point's path into its component, or concatenates
    the component answers lifted with :func:`in_component`.
    """

    components: tuple
    kind, func_tag, set_words = "union", "u", ("u",)
    MAX_DEPTH = 32  # levels a config may nest: ample, and well inside the interpreter stack

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

    # points and dynamics: the leaf the point's path names answers, keeping the path

    def apply_sigma(self, x: Point, k: int) -> Point:
        return self.leaf(x.path).apply_sigma(x, k)

    def period(self, x: Point):
        return self.leaf(x.path).period(x)

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

    # the config declaration, the function literal and u[...] sets, written and read

    def declaration(self, pad: str) -> str:
        inner = "\n".join(f"{pad}  component {c.declaration(pad + '  ')}"
                          for c in self.components)
        return f"union {{\n{inner}\n{pad}}}"

    @classmethod
    def read_declaration(cls, s):
        comps = []
        while not s.accept("}"):
            t = s.expect_name("component")
            if s.depth > cls.MAX_DEPTH:
                s.fail(f"unions nested too deeply: at most {cls.MAX_DEPTH} levels", at=t)
            comps.append(s.sysdecl())
        return cls(tuple(comps))

    def literal(self, f: Func) -> str:
        return "u[" + "; ".join(map(repr, f.data)) + "]"

    def _read_parts(self, s, read) -> tuple:
        """'[' part (';' part)* ']' with one part per component, read by read(component)."""
        s.expect("[")
        parts = []
        for i, c in enumerate(self.components):
            if i:
                s.expect(";")
            parts.append(read(c))
        s.expect("]")
        return tuple(parts)

    def read_func(self, s, exact: bool) -> Func:
        def part(c):
            if s.peek().text == "0" and s.toks[s.pos + 1].kind in (";", "]"):
                s.next()  # 0: the zero function of that component
                return c.const(sc.zero_like(exact))
            return s.func(c, exact)
        return Func(self, self._read_parts(s, part))

    def read_set(self, s, word: str):
        return UnionSet(self._read_parts(s, s.set))

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

    # random functions, for the property suites

    def random_func(self, rng, draw) -> Func:
        return Func(self, tuple(c.random_func(rng, draw) for c in self.components))

    def random_vanishing_on(self, S, rng, draw, zero) -> Func:
        return Func(self, tuple(c.random_vanishing_on(p, rng, draw, zero)
                                for c, p in zip(self.components, S.parts)))
