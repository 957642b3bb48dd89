"""Finitely supported elements of the crossed product algebra.

An element is a finite sum of coefficient functions indexed by integers,
multiplied with the twisted convolution determined by the dynamics.  All
identities of the algebra hold coefficientwise on finitely supported
elements, so no truncation is ever performed.
"""

from __future__ import annotations

import cmath
from functools import reduce

from . import scalars as sc
from .dynsys import Func, Point, f_is_zero, validate_point
from .errors import ModeMismatchError, SystemMismatchError
from .records import record


@record
class Element:
    """Finitely supported series sum_n a_n delta^n.  Construction checks
    every coefficient; the algebra operations use the trusted `_element`."""

    __slots__ = ("system", "coeffs", "exact")  # exact: a slot, not a field
    system: object
    coeffs: dict

    def __init__(self, system, coeffs):
        clean = {}
        for n, f in coeffs.items():
            if f.system != system:
                raise SystemMismatchError("coefficient on the wrong system")
            if not f_is_zero(f):
                clean[int(n)] = f
        if len({f.exact for f in clean.values()}) > 1:
            raise ModeMismatchError("coefficients mix numeric modes")
        _set_system(self, system)
        _set_coeffs(self, clean)
        _set_exact(self, any(f.exact for f in clean.values()))

    def __repr__(self):
        """Function literals times powers of d, by ascending index."""
        parts = []
        for n in self.support():
            power = "" if n == 0 else "*d" if n == 1 else f"*d^{n}"
            parts.append(f"{self.coeffs[n]!r}{power}")
        return " + ".join(parts) or "0"

    def coeff(self, n: int) -> Func:
        return self.coeffs.get(n) or self.system.const(sc.zero_like(self.exact))

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def support_radius(self) -> int:
        return max((abs(n) for n in self.coeffs), default=0)


_alloc = object.__new__
_set_system = Element.system.__set__
_set_coeffs = Element.coeffs.__set__
_set_exact = Element.exact.__set__


def _element(system, coeffs: dict) -> Element:
    """Trusted constructor: only drops zero coefficients."""
    clean = {n: f for n, f in coeffs.items() if not f_is_zero(f)}
    a = _alloc(Element)
    _set_system(a, system)
    _set_coeffs(a, clean)
    _set_exact(a, any(f.exact for f in clean.values()))
    return a


def element(system, coeffs) -> Element:
    return Element(system, dict(coeffs))


def from_func(f: Func) -> Element:
    return Element(f.system, {0: f})


def unit(system, exact: bool = False) -> Element:
    return Element(system, {0: system.const(sc.one_like(exact))})


def delta_power(system, n: int, exact: bool = False) -> Element:
    return Element(system, {n: system.const(sc.one_like(exact))})


def zero_element(system) -> Element:
    return Element(system, {})


def _check_pair(a: Element, b: Element) -> None:
    if a.system != b.system:
        raise SystemMismatchError("elements live on different systems")
    if a.coeffs and b.coeffs and a.exact != b.exact:  # the zero element has no mode
        raise ModeMismatchError("exact and floating elements mixed")


def alg_add(a: Element, b: Element) -> Element:
    _check_pair(a, b)
    add = a.system.add
    out = dict(a.coeffs)
    for n, f in b.coeffs.items():
        out[n] = add(out[n], f) if n in out else f
    return _element(a.system, out)


def alg_scale(c, a: Element) -> Element:
    if a.coeffs and sc.is_exact(c) != a.exact:  # the zero element has no mode
        raise ModeMismatchError("exact and floating scalars mixed")
    return _element(a.system, {n: a.system.scale(c, f) for n, f in a.coeffs.items()})


def alg_neg(a: Element) -> Element:
    return alg_scale(sc.qc(-1) if a.exact else -1 + 0j, a)


def alg_sub(a: Element, b: Element) -> Element:
    return alg_add(a, alg_neg(b))


def alg_mul(a: Element, b: Element) -> Element:
    """Twisted convolution: coefficient n collects a_k . (b_{n-k} o sigma^{-k})."""
    _check_pair(a, b)
    system = a.system
    add, mul, compose = system.add, system.mul, system.compose_sigma
    out: dict = {}
    for k, ak in a.coeffs.items():
        for m, bm in b.coeffs.items():
            n = k + m
            term = mul(ak, compose(bm, -k))
            out[n] = add(out[n], term) if n in out else term
    return _element(system, out)


def alg_adj(a: Element) -> Element:
    """Involution: coefficient n is the conjugate of a_{-n} o sigma^{-n}."""
    system = a.system
    return _element(system, {-m: system.conj(system.compose_sigma(g, m))
                             for m, g in a.coeffs.items()})


def alg_norm(a: Element) -> float:
    """Sum of the coefficient norms."""
    return float(sum(a.system.algnorm(f) for f in a.coeffs.values()))


def expectation(a: Element) -> Func:
    """The coefficient at index zero (a contractive projection onto C(X))."""
    return a.coeff(0)


def dual_action(a: Element, lam) -> Element:
    """Scale the n-th coefficient by lam**n for unimodular lam, in unify_lam's mode."""
    sc.check_unimodular(lam)
    a, lam = unify_lam(a, lam)
    return _element(a.system, {
        n: a.system.scale(sc.unit_pow(lam, n), f) for n, f in a.coeffs.items()
    })


def dual_average(a: Element, order: int) -> Element:
    """Average of the dual action over the order-th roots of unity.

    The root-of-unity power sums vanish exactly unless the coefficient
    index is a multiple of the order, so the average keeps exactly those
    coefficients; this holds in both numeric modes without float residue.
    """
    if order < 1:
        raise ValueError("averaging order must be positive")
    return _element(a.system, {n: f for n, f in a.coeffs.items() if n % order == 0})


def fourier_func(a: Element, lam) -> Func:
    """The transform of a at lam, x -> sum_n lam**n a_n(x), in unify_lam's mode."""
    a, lam = unify_lam(a, lam)
    system = a.system
    terms = [system.scale(sc.unit_pow(lam, n), f) for n, f in a.coeffs.items()]
    return reduce(system.add, terms) if terms else system.const(sc.zero_like(a.exact))


def fourier_eval(a: Element, x: Point, lam):
    """The transform value sum_n lam**n a_n(x)."""
    validate_point(a.system, x)
    sc.check_unimodular(lam)
    return _transform_value(*unify_lam(a, lam), x)


def _transform_value(a: Element, lam, y: Point):
    """sum_n lam**n a_n(y) from the coefficient values at y, with no Func
    built; a and lam already share a mode.  Summed in coefficient order, as
    fourier_func sums, so on the finite, shift and union models the value
    is that of fourier_func at y, bit for bit."""
    value = a.system.eval
    total = None
    for n, f in a.coeffs.items():
        term = sc.unit_pow(lam, n) * value(f, y)
        total = term if total is None else total + term
    return sc.zero_like(a.exact) if total is None else total


def demote_to_float(a: Element) -> Element:
    """Copy of the element with exact scalars converted to complex."""
    return _element(a.system, {n: a.system.demote(f) for n, f in a.coeffs.items()})


def unify_lam(a: Element, lam):
    """Bring lam and the element into one numeric mode."""
    if a.exact and not sc.is_exact(lam):
        return demote_to_float(a), complex(lam)
    if not a.exact and sc.is_exact(lam):
        return a, complex(lam)
    return a, lam


def check_finite(a: Element) -> Element:
    """a itself, or OverflowError if a float value of it is inf or nan."""
    if not a.exact and not all(cmath.isfinite(v) for f in a.coeffs.values()
                               for v in a.system.scalars(f.data)):
        raise OverflowError("float overflow: the element has a value that is not finite")
    return a


def elem_is_zero(a: Element, tol: float = 0.0) -> bool:
    return all(f_is_zero(f, tol) for f in a.coeffs.values())


def elem_close(a: Element, b: Element, tol: float = sc.DEFAULT_TOL) -> bool:
    return elem_is_zero(alg_sub(a, b), tol)
