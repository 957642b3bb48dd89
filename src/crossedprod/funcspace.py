"""Concrete models of the continuous functions on each system.

Finite systems carry plain value vectors, the compactified shift carries
finitely-perturbed constants, and the rotation carries trigonometric
polynomials with absolutely summable coefficients.  The rotation model
runs in float mode only; finite and shift models also support exact
rational scalars.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from . import scalars as sc
from .dynsys import (
    INF, CircleSet, FiniteSet, FiniteSystem, Point, RotationSystem, ShiftSet,
    ShiftSystem, UnionSet, UnionSystem, _lcm_order, sigma_power_map, turns_eq,
    validate_point,
)
from .errors import ModeMismatchError, SystemMismatchError, UnsupportedQueryError

DEFAULT_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class Func:
    """A function in the C(X) model of its system.

    data layout:
      finite system   -> tuple of scalars, one per point
      shift system    -> (value at infinity, {n: value} finite exceptions)
      rotation system -> {frequency: coefficient} trigonometric polynomial
      union system    -> tuple of component Funcs

    ``Func(system, data)`` validates its data and decides the numeric mode
    once; the kernels below build their results through :func:`_func`,
    which trusts its inputs.
    """

    system: object
    data: object
    exact: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        data, exact = _normal_form(self.system, self.data)
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


def _normal_form(system, data) -> tuple:
    """(normalised data, exact) after checking data against the system."""
    if isinstance(system, FiniteSystem):
        data = tuple(data)
        if len(data) != system.size:
            raise SystemMismatchError("value vector length mismatch")
        return data, sc.check_same_mode(data)
    if isinstance(system, ShiftSystem):
        v_inf, exc = data
        exc = {int(n): v for n, v in exc.items() if v != v_inf}
        return (v_inf, exc), sc.check_same_mode([v_inf, *exc.values()])
    if isinstance(system, RotationSystem):
        coeffs = {int(k): c for k, c in data.items() if not sc.is_zero(c)}
        if any(sc.is_exact(c) for c in coeffs.values()):
            raise ModeMismatchError("the rotation model runs in float mode")
        return coeffs, False
    if isinstance(system, UnionSystem):
        parts = tuple(data)
        if len(parts) != len(system.components):
            raise SystemMismatchError("union function arity mismatch")
        for c, p in zip(system.components, parts):
            if p.system != c:
                raise SystemMismatchError("component function on wrong system")
        return parts, sc.check_same_mode(_scalars_of(system, parts))
    raise SystemMismatchError("unknown system kind")


def _scalars_of(system, data):
    if isinstance(system, FiniteSystem):
        yield from data
    elif isinstance(system, ShiftSystem):
        yield data[0]
        yield from data[1].values()
    elif isinstance(system, RotationSystem):
        yield from data.values()
    else:
        for p in data:
            yield from _scalars_of(p.system, p.data)


# ---------------------------------------------------------------------------
# Constructors


def const_func(system, value) -> Func:
    if isinstance(system, FiniteSystem):
        return Func(system, (value,) * system.size)
    if isinstance(system, ShiftSystem):
        return Func(system, (value, {}))
    if isinstance(system, RotationSystem):
        return Func(system, {0: value})
    return Func(system, tuple(const_func(c, value) for c in system.components))


def zero_func(system, exact: bool = False) -> Func:
    return const_func(system, sc.zero_like(exact))


def one_func(system, exact: bool = False) -> Func:
    return const_func(system, sc.one_like(exact))


def finite_func(system: FiniteSystem, values) -> Func:
    return Func(system, tuple(values))


def shift_func(system: ShiftSystem, v_inf, exceptional=None) -> Func:
    return Func(system, (v_inf, dict(exceptional or {})))


def trig_poly(system: RotationSystem, coeffs) -> Func:
    return Func(system, dict(coeffs))


def union_func(system: UnionSystem, parts) -> Func:
    return Func(system, tuple(parts))


def embed_func(system: UnionSystem, index: int, part: Func, exact: bool = False) -> Func:
    parts = [zero_func(c, exact) for c in system.components]
    parts[index] = part
    return Func(system, tuple(parts))


def point_indicator(system, x: Point, exact: bool = False) -> Func:
    """Continuous indicator of an isolated point."""
    validate_point(system, x)
    if isinstance(system, UnionSystem):
        i = x.path[0]
        inner = point_indicator(system.components[i], Point(x.coord, x.path[1:]), exact)
        return embed_func(system, i, inner, exact)
    one, zero = sc.one_like(exact), sc.zero_like(exact)
    if isinstance(system, FiniteSystem):
        return Func(system, tuple(one if i == x.coord else zero for i in range(system.size)))
    if isinstance(system, ShiftSystem):
        if x.coord is INF:
            raise UnsupportedQueryError("the point at infinity is not isolated")
        return Func(system, (zero, {x.coord: one}))
    raise UnsupportedQueryError("circle points are not isolated")


# ---------------------------------------------------------------------------
# Pointwise algebra


def _binop(f: Func, g: Func, op):
    """Pointwise op on the finite and shift models."""
    if isinstance(f.system, FiniteSystem):
        return _func(f.system, tuple(map(op, f.data, g.data)), f.exact)
    vf, ef = f.data
    vg, eg = g.data
    keys = set(ef) | set(eg)
    return _shift(f.system, op(vf, vg),
                  {n: op(ef.get(n, vf), eg.get(n, vg)) for n in keys}, f.exact)


def f_add(f: Func, g: Func) -> Func:
    if f.system != g.system:
        raise SystemMismatchError("functions live on different systems")
    if isinstance(f.system, RotationSystem):
        keys = set(f.data) | set(g.data)
        return _trig(f.system, {k: f.data.get(k, 0j) + g.data.get(k, 0j) for k in keys})
    if isinstance(f.system, UnionSystem):
        return _func(f.system, tuple(map(f_add, f.data, g.data)), f.exact)
    return _binop(f, g, add)


def f_sub(f: Func, g: Func) -> Func:
    return f_add(f, f_scale(sc.qc(-1) if g.exact else -1 + 0j, g))


def f_mul(f: Func, g: Func) -> Func:
    """Pointwise product; coefficient convolution on the rotation model."""
    if f.system != g.system:
        raise SystemMismatchError("functions live on different systems")
    if isinstance(f.system, RotationSystem):
        out: dict = {}
        for j, a in f.data.items():
            for k, b in g.data.items():
                out[j + k] = out.get(j + k, 0j) + a * b
        return _trig(f.system, out)
    if isinstance(f.system, UnionSystem):
        return _func(f.system, tuple(map(f_mul, f.data, g.data)), f.exact)
    return _binop(f, g, mul)


def f_scale(c, f: Func) -> Func:
    system = f.system
    if isinstance(system, FiniteSystem):
        return _func(system, tuple(c * v for v in f.data), f.exact)
    if isinstance(system, ShiftSystem):
        v, e = f.data
        return _shift(system, c * v, {n: c * w for n, w in e.items()}, f.exact)
    if isinstance(system, RotationSystem):
        return _trig(system, {k: c * w for k, w in f.data.items()})
    return _func(system, tuple(f_scale(c, p) for p in f.data), f.exact)


def f_conj(f: Func) -> Func:
    """Pointwise complex conjugate."""
    system = f.system
    if isinstance(system, FiniteSystem):
        return _func(system, tuple(sc.conj(v) for v in f.data), f.exact)
    if isinstance(system, ShiftSystem):
        v, e = f.data
        return _shift(system, sc.conj(v), {n: sc.conj(w) for n, w in e.items()}, f.exact)
    if isinstance(system, RotationSystem):
        return _trig(system, {-k: sc.conj(c) for k, c in f.data.items()})
    return _func(system, tuple(f_conj(p) for p in f.data), f.exact)


@lru_cache(maxsize=8192)
def rotation_phase(system: RotationSystem, m: int) -> complex:
    """exp(2 pi i theta m), reduced mod 1 before exponentiating."""
    return cmath.exp(2j * math.pi * float(system.theta_times_mod1(m)))


def f_compose_sigma(f: Func, k: int) -> Func:
    """The function x -> f(sigma^k x)."""
    system = f.system
    if isinstance(system, FiniteSystem):
        m = sigma_power_map(system, k % _lcm_order(system))
        return _func(system, tuple(map(f.data.__getitem__, m)), f.exact)
    if isinstance(system, ShiftSystem):
        # moving the exceptions keeps them distinct from the value at infinity
        v, e = f.data
        return _func(system, (v, {n - k: w for n, w in e.items()}), f.exact)
    if isinstance(system, RotationSystem):
        return _trig(system, {j: c * rotation_phase(system, k * j) for j, c in f.data.items()})
    return _func(system, tuple(f_compose_sigma(p, k) for p in f.data), f.exact)


def f_eval(f: Func, x: Point):
    validate_point(f.system, x)
    system = f.system
    if isinstance(system, UnionSystem):
        i = x.path[0]
        return f_eval(f.data[i], Point(x.coord, x.path[1:]))
    if isinstance(system, FiniteSystem):
        return f.data[x.coord]
    if isinstance(system, ShiftSystem):
        v, e = f.data
        return v if x.coord is INF else e.get(x.coord, v)
    t = float(x.coord)
    return sum(
        (c * cmath.exp(2j * math.pi * ((t * k) % 1.0)) for k, c in f.data.items()),
        0j,
    )


# ---------------------------------------------------------------------------
# Norms and zero sets


def grid_size(f: Func) -> int:
    maxfreq = max((abs(k) for k in f.data), default=0)
    return 8 * maxfreq + 16


def f_supnorm_bounds(f: Func) -> tuple[float, float]:
    """(lower, upper) for the sup norm; equal except on the rotation model."""
    system = f.system
    if isinstance(system, FiniteSystem):
        m = max((abs(v) for v in f.data), default=0.0)
        return (m, m)
    if isinstance(system, ShiftSystem):
        v, e = f.data
        m = max([abs(v)] + [abs(w) for w in e.values()])
        return (m, m)
    if isinstance(system, RotationSystem):
        upper = float(sum(abs(c) for c in f.data.values()))
        G = grid_size(f)
        lower = max(
            abs(f_eval(f, Point(Fraction(j, G)))) for j in range(G)
        ) if f.data else 0.0
        return (lower, upper)
    los, his = zip(*(f_supnorm_bounds(p) for p in f.data))
    return (max(los), max(his))


def f_algnorm(f: Func) -> float:
    """The computable algebra norm: exact sup where available, the
    coefficient-sum norm on the rotation model."""
    system = f.system
    if isinstance(system, RotationSystem):
        return float(sum(abs(c) for c in f.data.values()))
    if isinstance(system, UnionSystem):
        return max(f_algnorm(p) for p in f.data)
    return f_supnorm_bounds(f)[0]


def f_is_zero(f: Func, tol: float = 0.0) -> bool:
    return all(sc.is_zero(v, tol) for v in _scalars_of(f.system, f.data))


def func_close(f: Func, g: Func, tol: float = DEFAULT_TOL) -> bool:
    return f_is_zero(f_sub(f, g), tol)


def f_zero_set(f: Func, tol: float = DEFAULT_TOL):
    """The set of points where f vanishes, as a ClosedSet."""
    system = f.system
    if isinstance(system, FiniteSystem):
        return FiniteSet(frozenset(i for i, v in enumerate(f.data) if sc.is_zero(v, tol)))
    if isinstance(system, ShiftSystem):
        v, e = f.data
        if sc.is_zero(v, tol):
            excluded = frozenset(n for n, w in e.items() if not sc.is_zero(w, tol))
            return ShiftSet(excluded, True, True)
        return ShiftSet(
            frozenset(n for n, w in e.items() if sc.is_zero(w, tol)), False
        )
    if isinstance(system, RotationSystem):
        if not f.data:
            return CircleSet(True)
        return CircleSet(False, tuple(unit_circle_roots(f.data, tol)))
    return UnionSet(tuple(f_zero_set(p, tol) for p in f.data))


def unit_circle_roots(coeffs: dict, tol: float) -> list[float]:
    """Turns of the unit-circle roots of sum_k c_k z^k."""
    import numpy as np  # deferred: only root finding needs it, and it is costly to load

    lo = min(coeffs)
    hi = max(coeffs)
    poly = [complex(coeffs.get(k, 0j)) for k in range(hi, lo - 1, -1)]
    roots = np.roots(poly) if len(poly) > 1 else []
    turns = []
    for r in roots:
        if abs(abs(r) - 1.0) <= max(tol, 1e-7):
            t = (cmath.phase(complex(r)) / (2 * math.pi)) % 1.0
            if not any(turns_eq(t, u) for u in turns):
                turns.append(t)
    return sorted(turns)


def vanishes_on(f: Func, S, tol: float = DEFAULT_TOL) -> bool:
    """Whether f restricted to the closed set S is zero."""
    system = f.system
    if isinstance(system, UnionSystem):
        return all(vanishes_on(p, s, tol) for p, s in zip(f.data, S.parts))
    if isinstance(system, FiniteSystem):
        return all(sc.is_zero(f.data[i], tol) for i in S.points)
    if isinstance(system, ShiftSystem):
        v, e = f.data
        if S.cofinite:
            if not sc.is_zero(v, tol):
                return False
            return all(sc.is_zero(w, tol) for n, w in e.items() if n not in S.ints)
        ok_inf = not S.has_inf or sc.is_zero(v, tol)
        return ok_inf and all(sc.is_zero(e.get(n, v), tol) for n in S.ints)
    if S.whole:
        return f_is_zero(f, tol)
    return all(sc.is_zero(f_eval(f, Point(t)), tol) for t in S.turns)


def separating_func(system, S, x: Point, exact: bool = False) -> Func:
    """A function vanishing on S and nonzero at x (x outside S)."""
    validate_point(system, x)
    if isinstance(system, UnionSystem):
        i = x.path[0]
        inner = separating_func(system.components[i], S.parts[i],
                                Point(x.coord, x.path[1:]), exact)
        return embed_func(system, i, inner, exact)
    if isinstance(system, FiniteSystem) or (isinstance(system, ShiftSystem)
                                            and x.coord is not INF):
        return point_indicator(system, x, exact)
    if isinstance(system, ShiftSystem):
        if S.cofinite or S.has_inf:
            raise UnsupportedQueryError("x lies in the closure of S")
        return Func(system, (sc.one_like(exact), {n: sc.zero_like(exact) for n in S.ints}))
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
    return Func(system, coeffs)


def cx_basis(system, ints_window=(), max_freq: int = 0, exact: bool = False) -> list[Func]:
    """A finite test family in C(X) that spans enough directions to probe
    the values of finitely supported coefficients.

    Finite components contribute all point indicators; shift components
    the constant plus indicators of the given integer window; rotation
    components the monomials of frequency 0..max_freq.
    """
    if isinstance(system, UnionSystem):
        out = []
        for i, c in enumerate(system.components):
            for b in cx_basis(c, ints_window, max_freq, exact):
                out.append(embed_func(system, i, b, exact))
        return out
    if isinstance(system, FiniteSystem):
        return [point_indicator(system, Point(i), exact) for i in range(system.size)]
    if isinstance(system, ShiftSystem):
        base = [one_func(system, exact)]
        base.extend(point_indicator(system, Point(n), exact) for n in ints_window)
        return base
    return [trig_poly(system, {k: 1 + 0j}) for k in range(max_freq + 1)]
