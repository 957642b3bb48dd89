"""Concrete models of the continuous functions on each system.

Finite systems carry plain value vectors, the compactified shift carries
finitely-perturbed constants, and the rotation carries trigonometric
polynomials with absolutely summable coefficients.  The rotation model
runs in float mode only; finite and shift models also support exact
rational scalars.

Each model's kernels are methods of its system class, in that model's own
module; :class:`Func` and :func:`f_is_zero` live in :mod:`.dynsys`.  The
functions here check their arguments, numeric modes included, and call the
method, for users: the library's own layers call the methods directly.
"""

from __future__ import annotations

from . import scalars as sc
from .dynsys import Func as Func, Point, f_is_zero as f_is_zero, validate_point
from .dynsys import rotation_phase as rotation_phase
from .errors import ModeMismatchError, SystemMismatchError
from .scalars import DEFAULT_TOL as DEFAULT_TOL, unit_circle_roots as unit_circle_roots


# ---------------------------------------------------------------------------
# Constructors


def const_func(system, value) -> Func:
    return system.const(value)


def zero_func(system, exact: bool = False) -> Func:
    return system.const(sc.zero_like(exact))


def one_func(system, exact: bool = False) -> Func:
    return system.const(sc.one_like(exact))


def finite_func(system, values) -> Func:
    return Func(system, tuple(values))


def shift_func(system, v_inf, exceptional=None) -> Func:
    return Func(system, (v_inf, dict(exceptional or {})))


def trig_poly(system, coeffs) -> Func:
    return Func(system, dict(coeffs))


def union_func(system, parts) -> Func:
    return Func(system, tuple(parts))


def point_indicator(system, x: Point, exact: bool = False) -> Func:
    """Continuous indicator of an isolated point."""
    validate_point(system, x)
    return system.point_indicator(x, exact)


# ---------------------------------------------------------------------------
# Pointwise algebra


def _check_pair(f: Func, g: Func) -> None:
    if f.system != g.system:
        raise SystemMismatchError("functions live on different systems")
    if f.exact != g.exact:
        raise ModeMismatchError("exact and floating functions mixed")


def f_add(f: Func, g: Func) -> Func:
    _check_pair(f, g)
    return f.system.add(f, g)


def f_sub(f: Func, g: Func) -> Func:
    return f_add(f, f_scale(sc.qc(-1) if g.exact else -1 + 0j, g))


def f_mul(f: Func, g: Func) -> Func:
    """Pointwise product; coefficient convolution on the rotation model."""
    _check_pair(f, g)
    return f.system.mul(f, g)


def f_scale(c, f: Func) -> Func:
    if sc.is_exact(c) != f.exact:
        raise ModeMismatchError("exact and floating scalars mixed")
    return f.system.scale(c, f)


def f_conj(f: Func) -> Func:
    """Pointwise complex conjugate."""
    return f.system.conj(f)


def f_compose_sigma(f: Func, k: int) -> Func:
    """The function x -> f(sigma^k x)."""
    return f.system.compose_sigma(f, k)


def f_eval(f: Func, x: Point):
    validate_point(f.system, x)
    return f.system.eval(f, x)


# ---------------------------------------------------------------------------
# Norms and zero sets


def f_supnorm_bounds(f: Func) -> tuple[float, float]:
    """(lower, upper) for the sup norm; equal except on the rotation model."""
    return f.system.supnorm_bounds(f)


def f_algnorm(f: Func) -> float:
    """The computable algebra norm: exact sup where available, the
    coefficient-sum norm on the rotation model."""
    return f.system.algnorm(f)


def func_close(f: Func, g: Func, tol: float = DEFAULT_TOL) -> bool:
    return f_is_zero(f_sub(f, g), tol)


def f_zero_set(f: Func, tol: float = DEFAULT_TOL):
    """The set of points where f vanishes, as a closed set."""
    return f.system.zero_set(f, tol)


def vanishes_on(f: Func, S, tol: float = DEFAULT_TOL) -> bool:
    """Whether f restricted to the closed set S is zero."""
    f.system.check_set(S)
    return f.system.vanishes_on(f, S, tol)


def separating_func(system, S, x: Point, exact: bool = False) -> Func:
    """A function vanishing on S and nonzero at x (x outside S)."""
    system.check_set(S)
    validate_point(system, x)
    return system.separating_func(S, x, exact)


def cx_basis(system, ints_window=(), max_freq: int = 0, exact: bool = False) -> list[Func]:
    """A finite test family in C(X) that spans enough directions to probe
    the values of finitely supported coefficients.

    Finite components contribute all point indicators; shift components
    the constant plus indicators of the given integer window; rotation
    components the monomials of frequency 0..max_freq.
    """
    return system.cx_basis(ints_window, max_freq, exact)
