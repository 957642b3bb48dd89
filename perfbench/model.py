"""The benchmark's own reference model of the crossed product algebra.

Written apart from the library and sharing no code with it.  Scalars are
Gaussian rationals (:class:`GQ`) in exact checks and builtin ``complex`` in
float checks; every function below works with either.

Systems: ``Fin(sigma)`` (a permutation of 0..n-1), ``SHIFT`` (n -> n+1 on the
integers plus a fixed point at infinity) and ``Union(components)``.
Points: an ``int`` on a finite system, an ``int`` or ``INF`` on the shift,
and ``(component, inner point)`` on a union.
Functions: a tuple of values on a finite system, ``(value at infinity,
{n: value that differs})`` on the shift, a tuple of parts on a union.
Elements: ``{index: function}`` without zero coefficients, standing for
``sum_n a_n delta^n`` with ``delta f delta^-1 = f o sigma^-1``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

INF = "inf"


class GQ:
    """Gaussian rational re + im*i with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        return GQ(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return GQ(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GQ(-self.re, -self.im)

    def __mul__(self, o):
        return GQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __eq__(self, o):
        return isinstance(o, GQ) and self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return scalar_text(self)

    def conjugate(self):
        return GQ(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im


def zero_like(v):
    return GQ() if isinstance(v, GQ) else 0j


def one_like(v):
    return GQ(1) if isinstance(v, GQ) else 1 + 0j


def is_zero(v, tol: float = 0.0) -> bool:
    if isinstance(v, GQ):
        return not v
    return abs(v) <= tol


def power(lam, n: int):
    """lam**n for unimodular lam; negative powers through the conjugate."""
    base = lam if n >= 0 else lam.conjugate()
    out = one_like(lam)
    for _ in range(abs(n)):
        out = out * base
    return out


def circle_point(t) -> GQ:
    """The exact unimodular ((1 - t^2) + 2t i) / (1 + t^2) for rational t."""
    t = Fraction(t)
    d = 1 + t * t
    return GQ((1 - t * t) / d, 2 * t / d)


def scalar_text(z) -> str:
    """Gaussian rational as an ``a+bi`` literal the library's parser reads."""
    if not z.im:
        return str(z.re)
    im = f"{z.im}i"
    if not z.re:
        return im
    return f"{z.re}{'' if im.startswith('-') else '+'}{im}"


def parse_scalar(text: str) -> GQ:
    """Read an exact scalar as the library renders it (``3/5-4/5i``)."""
    text = text.strip()
    if not text.endswith("i"):
        return GQ(Fraction(text))
    body = text[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    if cut <= 0:
        return GQ(0, Fraction(body))
    return GQ(Fraction(body[:cut]), Fraction(body[cut:]))


# ---------------------------------------------------------------------------
# Systems and points


class Fin:
    def __init__(self, sigma):
        self.sigma = tuple(sigma)
        self.n = len(self.sigma)
        inv = [0] * self.n
        for i, j in enumerate(self.sigma):
            inv[j] = i
        self.inv = tuple(inv)

    def orbit(self, i: int) -> list:
        out = [i]
        j = self.sigma[i]
        while j != i:
            out.append(j)
            j = self.sigma[j]
        return out

    def orbit_reps(self) -> list:
        seen, reps = set(), []
        for i in range(self.n):
            if i not in seen:
                reps.append(i)
                seen.update(self.orbit(i))
        return reps


class _Shift:
    pass


SHIFT = _Shift()


class Union:
    def __init__(self, components):
        self.components = tuple(components)


def step(sys, x, k: int):
    """sigma^k(x)."""
    if isinstance(sys, Union):
        i, y = x
        return (i, step(sys.components[i], y, k))
    if sys is SHIFT:
        return x if x == INF else x + k
    table = sys.sigma if k >= 0 else sys.inv
    for _ in range(abs(k)):
        x = table[x]
    return x


def orbit(sys, x) -> list | None:
    """The orbit of a periodic point starting at x, None when aperiodic."""
    if isinstance(sys, Union):
        i, y = x
        inner = orbit(sys.components[i], y)
        return None if inner is None else [(i, z) for z in inner]
    if sys is SHIFT:
        return [INF] if x == INF else None
    return sys.orbit(x)


def period(sys, x):
    o = orbit(sys, x)
    return None if o is None else len(o)


# ---------------------------------------------------------------------------
# Functions


def f_at(sys, f, x):
    if isinstance(sys, Union):
        i, y = x
        return f_at(sys.components[i], f[i], y)
    if sys is SHIFT:
        v, exc = f
        return v if x == INF else exc.get(x, v)
    return f[x]


def f_is_zero(sys, f, tol: float = 0.0) -> bool:
    if isinstance(sys, Union):
        return all(f_is_zero(c, p, tol) for c, p in zip(sys.components, f))
    if sys is SHIFT:
        return is_zero(f[0], tol) and all(is_zero(w, tol) for w in f[1].values())
    return all(is_zero(v, tol) for v in f)


def shift_func(v, exc: dict):
    """Shift function in normal form (no exception equal to the limit)."""
    return (v, {n: w for n, w in exc.items() if w != v})


def tabulate(sys, rule, ints=()):
    """The function x -> rule(x); on the shift, ``ints`` must hold every
    integer where the value can differ from the value at infinity."""
    if isinstance(sys, Union):
        return tuple(
            tabulate(c, lambda y, i=i: rule((i, y)), ints[i] if ints else ())
            for i, c in enumerate(sys.components)
        )
    if sys is SHIFT:
        return shift_func(rule(INF), {n: rule(n) for n in ints})
    return tuple(rule(i) for i in range(sys.n))


def exceptional(sys, f):
    """Per-component sets of integers where a shift part is exceptional."""
    if isinstance(sys, Union):
        return tuple(exceptional(c, p) for c, p in zip(sys.components, f))
    if sys is SHIFT:
        return set(f[1])
    return set()


def _shifted(sys, ints, k):
    if isinstance(sys, Union):
        return tuple(_shifted(c, p, k) for c, p in zip(sys.components, ints))
    return {n + k for n in ints}


def _merge(sys, a, b):
    if isinstance(sys, Union):
        return tuple(_merge(c, p, q) for c, p, q in zip(sys.components, a, b))
    return a | b


def func_text(sys, f) -> str:
    """Function literal in the library's element syntax."""
    if isinstance(sys, Union):
        return "u[" + "; ".join(func_text(c, p) for c, p in zip(sys.components, f)) + "]"
    if sys is SHIFT:
        v, exc = f
        return "sh{" + ",".join([f"inf:{scalar_text(v)}"] + [
            f"{n}:{scalar_text(exc[n])}" for n in sorted(exc)]) + "}"
    return "f{" + ",".join(f"{i}:{scalar_text(v)}" for i, v in enumerate(f)) + "}"


# ---------------------------------------------------------------------------
# Elements


def normal(sys, coeffs: dict) -> dict:
    return {n: f for n, f in coeffs.items() if not f_is_zero(sys, f)}


def twisted_mul(sys, a: dict, b: dict) -> dict:
    """(a*b)_n(x) = sum_{k+m=n} a_k(x) b_m(sigma^-k x), point by point."""
    groups: dict = {}
    for k, ak in a.items():
        for m, bm in b.items():
            groups.setdefault(k + m, []).append((k, ak, bm))
    out = {}
    for n, terms in groups.items():
        ints = None
        for k, ak, bm in terms:
            here = _merge(sys, exceptional(sys, ak), _shifted(sys, exceptional(sys, bm), k))
            ints = here if ints is None else _merge(sys, ints, here)

        def rule(x, terms=terms):
            acc = None
            for k, ak, bm in terms:
                t = f_at(sys, ak, x) * f_at(sys, bm, step(sys, x, -k))
                acc = t if acc is None else acc + t
            return acc

        out[n] = tabulate(sys, rule, ints)
    return normal(sys, out)


def involution(sys, a: dict) -> dict:
    """(a*)_n(x) = conj(a_{-n}(sigma^-n x)), from (f delta^m)* = delta^-m conj(f)."""
    out = {}
    for m, f in a.items():
        n = -m
        ints = _shifted(sys, exceptional(sys, f), -m)
        out[n] = tabulate(sys, lambda x, f=f, n=n: f_at(sys, f, step(sys, x, -n)).conjugate(), ints)
    return normal(sys, out)


def sup_abs2(sys, f):
    """max |f|^2 over the space (exact for Gaussian rationals)."""
    if isinstance(sys, Union):
        return max(sup_abs2(c, p) for c, p in zip(sys.components, f))
    if sys is SHIFT:
        vals = [f[0], *f[1].values()]
    else:
        vals = list(f)
    return max(v.abs2() if isinstance(v, GQ) else abs(v) ** 2 for v in vals)


def algebra_norm(sys, a: dict) -> float:
    """sum_n sup |a_n| (the sup is exact before the square root)."""
    return math.fsum(math.sqrt(float(sup_abs2(sys, f))) for f in a.values())


def vanishes_on(sys, a: dict, points, tol: float = 0.0) -> bool:
    return all(is_zero(f_at(sys, f, x), tol) for f in a.values() for x in points)


def shift_part_zero(sys, a: dict, path) -> bool:
    """Every coefficient vanishes on the whole shift component at ``path``."""
    for f in a.values():
        g, s = f, sys
        for i in path:
            g, s = g[i], s.components[i]
        if not f_is_zero(s, g):
            return False
    return True


def residue_sums(sys, a: dict, x, lam) -> list:
    """The vanishing conditions of the periodic kernel at (x, lam): for each
    orbit point y and residue j mod p, sum_l lam^l a_{lp+j}(y)."""
    pts = orbit(sys, x)
    p = len(pts)
    out = []
    for y in pts:
        for j in range(p):
            acc = zero_like(lam)
            for n, f in a.items():
                if (n - j) % p == 0:
                    acc = acc + power(lam, (n - j) // p) * f_at(sys, f, y)
            out.append(acc)
    return out


def rep_matrix(sys, x, lam, a: dict) -> list:
    """Periodic representation in closed form: D^n sends e_k to
    lam^floor((k+n)/p) e_{(k+n) mod p}, and a_n acts diagonally along the orbit."""
    pts = orbit(sys, x)
    p = len(pts)
    M = [[zero_like(lam) for _ in range(p)] for _ in range(p)]
    for n, f in a.items():
        for k in range(p):
            i = (k + n) % p
            M[i][k] = M[i][k] + f_at(sys, f, pts[i]) * power(lam, (k + n) // p)
    return M


def window_matrix(sys, x, W: int, a: dict, zero) -> list:
    """Aperiodic representation on basis e_-W..e_W: entry (i, j) is
    a_{i-j}(sigma^i x)."""
    M = []
    for i in range(-W, W + 1):
        row = []
        for j in range(-W, W + 1):
            f = a.get(i - j)
            row.append(zero if f is None else f_at(sys, f, step(sys, x, i)))
        M.append(row)
    return M


def transform_value(sys, a: dict, x, mu: complex) -> complex:
    """sum_n mu^n a_n(x) in floating point."""
    return sum((mu ** n) * complex(f_at(sys, f, x)) for n, f in a.items())


# ---------------------------------------------------------------------------
# Reading the library's canonical renderings


_TERM_RE = re.compile(r"^(.*?)(?:\*d(?:\^(-?\d+))?)?$")


def parse_func(sys, text: str):
    text = text.strip()
    if isinstance(sys, Union):
        if not (text.startswith("u[") and text.endswith("]")):
            raise ValueError(f"union literal expected: {text!r}")
        parts = _split_top(text[2:-1], "; ")
        if len(parts) != len(sys.components):
            raise ValueError("union arity mismatch")
        return tuple(parse_func(c, p) for c, p in zip(sys.components, parts))
    head = "sh{" if sys is SHIFT else "f{"
    if not (text.startswith(head) and text.endswith("}")):
        raise ValueError(f"{head} literal expected: {text!r}")
    entries = {}
    for item in text[len(head):-1].split(","):
        k, v = item.split(":", 1)
        entries[k.strip()] = parse_scalar(v)
    if sys is SHIFT:
        v = entries.pop("inf")
        return shift_func(v, {int(k): w for k, w in entries.items()})
    if sorted(int(k) for k in entries) != list(range(sys.n)):
        raise ValueError("finite literal does not list every point")
    return tuple(entries[str(i)] for i in range(sys.n))


def parse_element(sys, text: str) -> dict:
    """Read an element as ``render_element`` prints it."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in _split_top(text, " + "):
        m = _TERM_RE.match(term)
        lit, power_text = m.group(1), m.group(2)
        n = 1 if term.endswith("*d") else int(power_text) if power_text else 0
        if n in out:
            raise ValueError("repeated index in rendered element")
        out[n] = parse_func(sys, lit)
    return normal(sys, out)


def _split_top(text: str, sep: str) -> list:
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        if ch in "[{(":
            depth += 1
        elif ch in "]})":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts
