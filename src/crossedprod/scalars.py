"""Complex scalars in two numeric modes.

Float mode uses the builtin ``complex``.  Exact mode uses :class:`QComplex`,
the Gaussian rational ``(a + b i) / d`` stored as three integers ``a``,
``b`` and ``d`` with ``d > 0`` and ``gcd(a, b, d) == 1``.  That normal form
is unique, so equality is a comparison of the three integers, and every
operation but a sign change restores it with one ``math.gcd``.  A
computation runs in one mode throughout; mixing raises :class:`ModeMismatchError`.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import ModeMismatchError

_gcd = math.gcd


class QComplex:
    """Complex number with exact rational parts, held as ``(a + b i) / d``.

    ``QComplex(re, im)`` takes the two rational parts; ``.re`` and ``.im``
    give them back as :class:`~fractions.Fraction`.  Instances are immutable.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re, im):
        re, im = Fraction(re), Fraction(im)
        d = math.lcm(re.denominator, im.denominator)
        return _reduced(re.numerator * (d // re.denominator),
                        im.numerator * (d // im.denominator), d)

    def __setattr__(self, name, value=None):
        raise AttributeError("QComplex is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # pickle and copy rebuild the normal form directly
        return _reduced, (self._a, self._b, self._d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __eq__(self, other):
        if type(other) is not QComplex:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        if type(other) is not QComplex:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        e = other._d
        if d == e:
            return _reduced(a + other._a, b + other._b, d)
        return _reduced(a * e + other._a * d, b * e + other._b * d, d * e)

    def __sub__(self, other):
        if type(other) is not QComplex:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        e = other._d
        if d == e:
            return _reduced(a - other._a, b - other._b, d)
        return _reduced(a * e - other._a * d, b * e - other._b * d, d * e)

    def __neg__(self):
        return _signed(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is not QComplex:
            return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    def __truediv__(self, other):
        if type(other) is not QComplex:
            return NotImplemented
        c, e = other._a, other._b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by exact zero")
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        a, b, f = self._a, self._b, other._d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def conjugate(self) -> "QComplex":
        return _signed(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def __abs__(self) -> float:  # int division rounds once, as float(abs2()) does
        a, b, d = self._a, self._b, self._d
        return math.sqrt((a * a + b * b) / (d * d))

    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"QComplex(re={self.re!r}, im={self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        return f"{re}+{im}i" if im >= 0 else f"{re}{im}i"


_set_a = QComplex._a.__set__
_set_b = QComplex._b.__set__
_set_d = QComplex._d.__set__
_alloc = object.__new__


def _reduced(a: int, b: int, d: int) -> QComplex:
    """Fast internal constructor: (a + b i) / d for integers with d > 0,
    brought to lowest terms without building any Fraction."""
    g = _gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    z = _alloc(QComplex)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _signed(a: int, b: int, d: int) -> QComplex:
    """(a + b i) / d with no gcd: a sign change keeps a normal form normal."""
    z = _alloc(QComplex)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


QZERO = _reduced(0, 0, 1)
QONE = _reduced(1, 0, 1)


def qc(re, im=0) -> QComplex:
    """Exact scalar from rational-convertible parts."""
    return QComplex(Fraction(re), Fraction(im))


def is_exact(z) -> bool:
    return isinstance(z, QComplex)


def check_same_mode(values) -> bool:
    """Return True when the values are exact, False when float.

    Raises ModeMismatchError on a mix.  An empty collection counts as float.
    """
    exact = None
    for v in values:
        e = isinstance(v, QComplex)
        if exact is None:
            exact = e
        elif exact != e:
            raise ModeMismatchError("exact and floating scalars mixed")
    return bool(exact)


def zero_like(exact: bool):
    return QZERO if exact else 0j


def one_like(exact: bool):
    return QONE if exact else 1 + 0j


def conj(z):
    return z.conjugate()


def is_zero(z, tol: float = 0.0) -> bool:
    """Zero test: exact equality for QComplex, |z| <= tol otherwise."""
    if isinstance(z, QComplex):
        return not z._a and not z._b
    return abs(complex(z)) <= tol


def check_unimodular(lam) -> None:
    """Refuse a torus parameter off the unit circle, where unit_pow's
    conjugate is no inverse: exactly, or within 1e-9 for a float."""
    if isinstance(lam, QComplex):
        on_circle = lam._a ** 2 + lam._b ** 2 == lam._d ** 2
    else:
        on_circle = abs(abs(complex(lam)) - 1.0) <= 1e-9
    if not on_circle:
        raise ValueError(f"torus parameter {render_scalar(lam)} is off the unit circle")


def unit_pow(lam, n: int):
    """lam**n for unimodular lam by square and multiply; n < 0 via conjugation.

    Conjugation keeps exact-mode values exact and avoids the loss of
    modulus that repeated float division would cause.
    """
    if n == 0:
        return QONE if isinstance(lam, QComplex) else 1 + 0j
    base = lam if n > 0 else conj(lam)
    out = base
    for bit in bin(abs(n))[3:]:
        out = out * out
        if bit == "1":
            out = out * base
    return out


def roots_of_unity(order: int) -> list[complex]:
    """The order-th roots of unity as floats, starting at 1."""
    return [cmath.exp(2j * math.pi * k / order) for k in range(order)]


def rational_circle_point(t) -> QComplex:
    """Exact unimodular scalar ((1-t^2) + 2t i)/(1+t^2) for rational t."""
    t = Fraction(t)
    p, q = t.numerator, t.denominator
    return _reduced(q * q - p * p, 2 * p * q, q * q + p * p)


# ---------------------------------------------------------------------------
# Scalar literals, as the parser reads them


def check_finite_scalar(v):
    """v itself, or OverflowError if v is a float that overflowed to inf or nan."""
    if not is_exact(v) and not cmath.isfinite(v):
        raise OverflowError("float overflow: the result is not finite")
    return v


def fmt_real(v) -> str:
    """A Fraction as itself, an integral float below 1e15 as an integer, and
    any other float at 12 significant digits (``inf``, ``-inf``, ``nan``)."""
    if isinstance(v, Fraction):
        return str(v)
    f = float(v)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return f"{f:.12g}"


def render_scalar(z) -> str:
    if isinstance(z, QComplex):
        re, im = z.re, z.im
    else:
        z = complex(z)
        re, im = z.real, z.imag
    re_s, im_s = fmt_real(re), fmt_real(im)
    if im == 0:
        return re_s
    if re == 0:
        return f"{im_s}i"
    sign = "+" if not im_s.startswith("-") else ""
    return f"{re_s}{sign}{im_s}i"


# ---------------------------------------------------------------------------
# Float polynomials (ascending coefficients) and their unit-circle roots

DEFAULT_TOL = 1e-9
ROOT_MATCH_TOL = 1e-6


def check_tolerance(v, name: str = "tolerance") -> float:
    """v as a float tolerance; ValueError unless it is finite and >= 0."""
    tol = float(v)
    if not 0 <= tol < math.inf:
        raise ValueError(f"{name} must be a finite number >= 0, not {fmt_real(tol)}")
    return tol


def unit_circle_roots(coeffs, tol: float) -> list[complex]:
    """The distinct roots on the unit circle of sum_k c_k z^k, by phase.

    coeffs is an ascending sequence or a Laurent dict {k: c_k}.  Roots are
    those of the squarefree part p / gcd(p, p'), by the tolerance Euclid of
    poly_gcd, so a repeated root is found once (and simple roots closer
    than about sqrt(tol) merge); a gcd that leaves a remainder on p or p'
    is spurious, and p is then taken as squarefree.  Those within
    max(tol, 1e-7) of the circle are kept, projected onto it, and merged
    when closer than ROOT_MATCH_TOL.
    """
    if isinstance(coeffs, dict):
        coeffs = [coeffs.get(k, 0) for k in range(min(coeffs), max(coeffs) + 1)]
    p = _poly_trim([complex(c) for c in coeffs], tol)
    if len(p) <= 1:
        return []
    dp = [k * c for k, c in enumerate(p)][1:]
    g = _euclid(p, dp, tol)
    if len(g) > 1:  # a g that leaves a remainder is spurious: p is squarefree
        q, r = _poly_divmod(p, g, tol)
        if not r and not _poly_divmod(dp, g, tol)[1]:
            p = q
    out: list[complex] = []
    for r in aberth_roots(p)[0]:
        if abs(abs(r) - 1.0) <= max(tol, 1e-7):
            r /= abs(r)
            if all(abs(r - u) > ROOT_MATCH_TOL for u in out):
                out.append(r)
    return sorted(out, key=lambda z: cmath.phase(z) % (2 * math.pi))


ABERTH_SWEEPS = 100
_ULP = 2.0 ** -52


def aberth_roots(p: list[complex]) -> tuple[list[complex], int]:
    """All roots of the squarefree p (ascending coefficients) and the sweeps
    taken; fewer than ABERTH_SWEEPS means that every root met the stop.

    Aberth-Ehrlich iteration (Bini, Numer. Algorithms 13, 1996) from fixed
    angles on the circle of the roots' geometric-mean modulus; a root stops
    after the step at which |p(z)| is within rounding of sum |c_k| |z|^k.
    A part within 8 ulp of |z| is set to 0.0, and so is the imaginary part
    of a real p's root that is its own nearest conjugate.
    """
    k = next((i for i, c in enumerate(p) if c), len(p))  # roots at zero
    terms = [(c, abs(c)) for c in reversed(p[k:])]
    n = len(terms) - 1
    if n < 1:
        return [0j] * k, 0
    radius = (terms[-1][1] / terms[0][1]) ** (1 / n)
    z = [cmath.rect(radius, 2 * math.pi * j / n + 0.4) for j in range(n)]
    active, sweeps = range(n), 0
    while active and sweeps < ABERTH_SWEEPS:
        sweeps += 1
        left = []
        for i in active:
            x, ax = z[i], abs(z[i])
            v = d = rep = 0j
            s = 0.0
            for c, m in terms:  # Horner for p, p' and p's rounding scale
                d = d * x + v
                v = v * x + c
                s = s * ax + m
            if abs(v) > 4 * n * _ULP * s:
                left.append(i)
            for j, y in enumerate(z):
                if j != i:
                    rep += 1 / (x - y)
            z[i] = x - v / (d - v * rep)
        active = left
    for i, x in enumerate(z):
        e = 8 * _ULP * abs(x)
        z[i] = complex(x.real if abs(x.real) > e else 0.0, x.imag if abs(x.imag) > e else 0.0)
    if all(c.imag == 0 for c, _ in terms):
        z = [complex(x.real) if min(range(n), key=lambda j: abs(x.conjugate() - z[j])) == i
             else x for i, x in enumerate(z)]
    return [0j] * k + z, sweeps


def _poly_trim(p: list[complex], tol: float, scale: float | None = None) -> list[complex]:
    """p with coefficients at most tol * scale zeroed and trailing zeros
    dropped; scale defaults to p's own largest coefficient."""
    if scale is None:
        scale = max(map(abs, p), default=0.0)
    if scale == 0.0:
        return []
    q = [c if abs(c) > tol * scale else 0j for c in p]
    while q and q[-1] == 0j:
        q.pop()
    return q


def _poly_divmod(a: list[complex], b: list[complex], tol: float):
    """Quotient and remainder of a by b."""
    # Trim against the operands' scale: a remainder at rounding level
    # relative to a and b is zero, however large it is relative to itself.
    scale = max(map(abs, (*a, *b)))
    a = _poly_trim(a, tol, scale)
    db, lead, small = len(b) - 1, b[-1], tol * scale
    quot = [0j] * max(len(a) - db, 0)
    while len(a) - 1 >= db:
        shift = len(a) - 1 - db
        quot[shift] = q = a.pop() / lead
        for i in range(db):  # only these entries change, so only they are trimmed
            c = a[shift + i] - q * b[i]
            a[shift + i] = c if abs(c) > small else 0j
        while a and a[-1] == 0j:
            a.pop()
    return quot, a


def poly_gcd(polys, tol: float = DEFAULT_TOL):
    """Monic gcd (ascending coefficients) of float polynomials.

    Returns None when every input is the zero polynomial, and a constant
    [1] when the inputs are coprime.  Exact to rounding on desk-scale
    degrees; coefficients below tol (relative) are treated as zero.
    """
    g: list[complex] | None = None
    for p in polys:
        p = _poly_trim([complex(c) for c in p], tol)
        if not p:
            continue
        g = p if g is None else _euclid(g, p, tol)
        if len(g) == 1:
            return [1 + 0j]
    if g is None:
        return None
    return [c / g[-1] for c in g]


def _euclid(a, b, tol):
    while b:
        a, b = b, _poly_divmod(a, b, tol)[1]
    return a


def exact_poly_gcd(polys):
    """poly_gcd over Q(i): an exact Euclid, remainders made monic to stay small."""
    g: list = []
    for p in polys:
        p = _monic(p)
        while g and p:
            for k in range(len(g) - len(p), -1, -1):  # g mod the monic p
                q = g.pop()
                g[k:k + len(p) - 1] = [c - q * b for c, b in zip(g[k:], p)]
            g, p = p, _monic(g)
        g = g or p
        if len(g) == 1:
            return g
    return g or None


def _monic(p) -> list:
    while p and is_zero(p[-1]):
        p = p[:-1]
    return [c / p[-1] for c in p]
