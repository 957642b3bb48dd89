"""Builds the library's inputs from reference-model values.

Only public constructors and the scalar parser are used, so the library
sees plain inputs and nothing of the benchmark's model.
"""

from __future__ import annotations

from crossedprod import algebra, dynsys, funcspace, parsing

from model import INF, SHIFT, Union, scalar_text


class Lib:
    def __init__(self, exact: bool):
        self.exact = exact
        self._systems: dict = {}
        self._scalars: dict = {}

    def system(self, msys):
        got = self._systems.get(msys)
        if got is None:
            if isinstance(msys, Union):
                got = dynsys.UnionSystem(tuple(self.system(c) for c in msys.components))
            elif msys is SHIFT:
                got = dynsys.ShiftSystem()
            else:
                got = dynsys.FiniteSystem(msys.n, msys.sigma)
            self._systems[msys] = got
        return got

    def point(self, msys, x):
        if isinstance(msys, Union):
            i, y = x
            inner = self.point(msys.components[i], y)
            return dynsys.Point(inner.coord, (i,) + inner.path)
        return dynsys.Point(dynsys.INF if x == INF else x)

    def scalar(self, v):
        if not self.exact:
            return complex(v)
        got = self._scalars.get(v)
        if got is None:
            got = self._scalars[v] = parsing.parse_scalar_text(scalar_text(v), True)
        return got

    def func(self, msys, f):
        lsys = self.system(msys)
        if isinstance(msys, Union):
            return funcspace.union_func(lsys, tuple(
                self.func(c, p) for c, p in zip(msys.components, f)))
        if msys is SHIFT:
            v, exc = f
            return funcspace.shift_func(lsys, self.scalar(v),
                                        {n: self.scalar(w) for n, w in exc.items()})
        return funcspace.finite_func(lsys, tuple(self.scalar(v) for v in f))

    def element(self, msys, a: dict):
        return algebra.element(self.system(msys),
                               {n: self.func(msys, f) for n, f in a.items()})

    def closed_set(self, msys, S):
        """Library closed set from its model form: a frozenset on a finite
        system, (ints, has_inf, cofinite) on the shift, a tuple on a union."""
        if isinstance(msys, Union):
            return dynsys.UnionSet(tuple(
                self.closed_set(c, p) for c, p in zip(msys.components, S)))
        if msys is SHIFT:
            ints, has_inf, cofinite = S
            return dynsys.ShiftSet(frozenset(ints), has_inf, cofinite)
        return dynsys.FiniteSet(frozenset(S))
