"""The exact scalar kernel against a Fraction-pair reference."""

import copy
import math
import pickle
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crossedprod import scalars as sc
from crossedprod.algebra import element
from crossedprod.funcspace import const_func
from crossedprod.parsing import parse_scalar_text, render_scalar
from crossedprod.scalars import QComplex


@dataclass(frozen=True)
class Ref:
    """Complex number as a pair of Fractions, the straightforward layout."""

    re: Fraction
    im: Fraction

    def __add__(self, o):
        return Ref(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Ref(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return Ref(-self.re, -self.im)

    def __mul__(self, o):
        return Ref(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        d = o.re * o.re + o.im * o.im
        return Ref((self.re * o.re + self.im * o.im) / d,
                   (self.im * o.re - self.re * o.im) / d)

    def conjugate(self):
        return Ref(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im


small = st.fractions(min_value=-20, max_value=20, max_denominator=12)
big = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**20))
parts = st.one_of(small, small, big)
pairs = st.tuples(parts, parts)


def both(pair):
    return QComplex(*pair), Ref(*pair)


def agrees(z: QComplex, r: Ref) -> bool:
    return type(z) is QComplex and z.re == r.re and z.im == r.im


def normal(z: QComplex) -> bool:
    return z._d > 0 and math.gcd(z._a, z._b, z._d) == 1


@settings(max_examples=200, deadline=None)
@given(pairs, pairs)
def test_arithmetic_matches_reference(p, q):
    (z, r), (w, s) = both(p), both(q)
    for got, want in ((z + w, r + s), (z - w, r - s), (z * w, r * s),
                      (-z, -r), (z.conjugate(), r.conjugate())):
        assert agrees(got, want)
        assert normal(got)
    if s.abs2():
        assert agrees(z / w, r / s) and normal(z / w)
    assert z.abs2() == r.abs2() and isinstance(z.abs2(), Fraction)
    assert complex(z) == complex(float(r.re), float(r.im))
    assert abs(z) == math.sqrt(float(r.abs2()))


@settings(max_examples=200, deadline=None)
@given(pairs, pairs)
def test_equality_and_hash_match_reference(p, q):
    (z, r), (w, s) = both(p), both(q)
    assert (z == w) == (r == s)
    assert (z != w) == (r != s)
    assert hash(z) == hash(r)
    assert z == QComplex(*p) and hash(z) == hash(QComplex(*p))
    assert normal(z)
    assert (z == complex(z)) is False


@settings(max_examples=100, deadline=None)
@given(pairs, pairs, pairs)
def test_ring_laws_hold_exactly(p, q, t):
    z, w, u = QComplex(*p), QComplex(*q), QComplex(*t)
    assert (z * w) * u == z * (w * u)
    assert z * (w + u) == z * w + z * u
    assert z - z == sc.QZERO and sc.is_zero(z - z)
    assert z * sc.QONE == z and z + sc.QZERO == z


@given(st.fractions(max_denominator=50))
def test_circle_points_are_unimodular(t):
    lam = sc.rational_circle_point(t)
    assert normal(lam)
    assert lam.abs2() == 1
    assert lam * lam.conjugate() == sc.QONE
    d = 1 + t * t
    assert agrees(lam, Ref((1 - t * t) / d, 2 * t / d))


def test_immutable():
    z = sc.qc(1, 2)
    for name in ("re", "im", "_a", "_b", "_d", "extra"):
        with pytest.raises(AttributeError):
            setattr(z, name, 3)
        with pytest.raises(AttributeError):
            delattr(z, name)
    assert z == sc.qc(1, 2)


@settings(max_examples=50, deadline=None)
@given(pairs)
def test_pickle_and_copy_keep_the_normal_form(p):
    z = QComplex(*p)
    for back in (pickle.loads(pickle.dumps(z)), copy.deepcopy(z), copy.copy(z)):
        assert type(back) is QComplex and back == z and hash(back) == hash(z) and normal(back)


def test_exact_funcs_and_elements_pickle_and_copy(cycle3):
    f = const_func(cycle3, sc.qc(1, -2) / sc.qc(3))
    a = element(cycle3, {0: f, 2: const_func(cycle3, sc.qc(0, 5))})
    for obj in (f, a):
        for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert back == obj and back.exact


def test_division_by_exact_zero_raises():
    with pytest.raises(ZeroDivisionError):
        sc.qc(1, 1) / sc.QZERO
    with pytest.raises(ZeroDivisionError):
        sc.QZERO / sc.qc(0)


def test_modes_do_not_mix():
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a / b):
        with pytest.raises(TypeError):
            op(sc.qc(1), 1 + 0j)
        with pytest.raises(TypeError):
            op(1 + 0j, sc.qc(1))


RENDERED = [
    ("0", "0", "0+0i"),
    ("1", "1", "1+0i"),
    ("-1", "-1", "-1+0i"),
    ("i", "1i", "0+1i"),
    ("-i", "-1i", "0-1i"),
    ("2/4", "1/2", "1/2+0i"),
    ("-3/6", "-1/2", "-1/2+0i"),
    ("1/2-1/3i", "1/2-1/3i", "1/2-1/3i"),
    ("3/5+4/5i", "3/5+4/5i", "3/5+4/5i"),
    ("-7/3i", "-7/3i", "0-7/3i"),
    ("0+0i", "0", "0+0i"),
    ("0-2i", "-2i", "0-2i"),
    ("-1/2+1/2i", "-1/2+1/2i", "-1/2+1/2i"),
    ("12/8-9/6i", "3/2-3/2i", "3/2-3/2i"),
    ("1/3+1/3-2/3", "0", "0+0i"),
    ("5i-5i", "0", "0+0i"),
    ("1/6+1/10i", "1/6+1/10i", "1/6+1/10i"),
    ("123456789/987654321-22/7i", "13717421/109739369-22/7i",
     "13717421/109739369-22/7i"),
]


@pytest.mark.parametrize("text, rendered, plain", RENDERED)
def test_render_scalar_table(text, rendered, plain):
    z = parse_scalar_text(text, True)
    assert render_scalar(z) == rendered
    assert str(z) == plain
    assert parse_scalar_text(rendered, True) == z
    assert repr(z) == f"QComplex(re={z.re!r}, im={z.im!r})"


@pytest.mark.parametrize("lam", [sc.qc(1), sc.qc(0, 1), sc.qc(Fraction(3, 5), Fraction(-4, 5)),
                                 sc.qc(Fraction(-5, 13), Fraction(12, 13))])
def test_unit_pow_is_the_repeated_product_exactly(lam):
    want = sc.QONE
    for n in range(40):
        assert sc.unit_pow(lam, n) == want
        assert sc.unit_pow(lam, -n) == want.conjugate()
        want = want * lam


def test_unit_pow_keeps_small_float_powers_bit_for_bit():
    lam = complex(math.cos(0.7), math.sin(0.7))
    for n in (1, 2, 3):
        want = lam
        for _ in range(n - 1):
            want = want * lam
        assert sc.unit_pow(lam, n) == want
        assert sc.unit_pow(lam, -n) == want.conjugate()
    for n in (4, 5, 17, 1000):
        assert abs(sc.unit_pow(lam, n) - complex(math.cos(0.7 * n), math.sin(0.7 * n))) < 1e-12


def test_a_large_torus_power_takes_few_products():
    import contextlib
    import io
    import time
    from pathlib import Path
    from crossedprod.cli import run_command
    cfg = Path(__file__).parent / "data" / "cycle3_exact.cfg"
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = run_command(["--config", str(cfg), "transform", "--elem", "d^2000000",
                            "--point", "0", "--lam", "i"])
    assert time.perf_counter() - t0 < 1.0
    assert (code, buf.getvalue()) == (0, "1\n")
