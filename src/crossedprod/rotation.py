"""The circle rotation model; its functions are trigonometric polynomials, in float mode."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import reduce

from . import scalars as sc
from .dynsys import Func, Point, _func, _Leaf, rotation_phase
from .errors import ModeMismatchError, SystemMismatchError, UnsupportedQueryError
from .records import record


@record
class Surd:
    """Quadratic surd (p + q*sqrt(r)) / d, used for rotation angles.

    Keeping the angle symbolic lets multiples of it be reduced mod 1 at
    full precision with integer arithmetic, which a bare float cannot do
    once the multiplier gets large.
    """

    p: int
    q: int
    r: int
    d: int = 1

    def __post_init__(self):
        if self.d == 0:
            raise ValueError("zero denominator in surd")
        if self.r < 0:
            raise ValueError("negative radicand")

    def value(self) -> float:
        return (self.p + self.q * math.sqrt(self.r)) / self.d

    __float__ = value

    def times_mod1(self, m: int) -> float:
        """Fractional part of m * value(), via high-precision integers.

        Small multipliers take a float fast path; the integer path keeps
        full precision once m * value() outgrows the double mantissa.
        """
        if abs(m) <= 10_000:
            return (self.value() * m) % 1.0
        digits = 40 + len(str(abs(self.q * m) + 1))
        scale = 10 ** digits
        sq = math.isqrt(self.r * scale * scale)
        num = self.p * m * scale + self.q * m * sq
        frac = Fraction(num, self.d * scale) % 1
        return float(frac)


GOLDEN_CONJUGATE = Surd(-1, 1, 5, 2)
TURN_TOL = 1e-9


def turns_eq(a, b, tol: float = TURN_TOL) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return (a - b) % 1 == 0
    d = (float(a) - float(b)) % 1.0
    return d <= tol or 1.0 - d <= tol


@record
class CircleSet:
    """The whole circle, or finitely many points of it as turns."""

    whole: bool
    turns: tuple = ()

    def __repr__(self):
        if self.whole:
            return "circle"
        return "{" + ",".join(map(sc.fmt_real, self.turns)) + "}"

    def is_empty(self) -> bool:
        return not self.whole and not self.turns


def _circle_points(turns_iter) -> CircleSet:
    uniq: list = []
    for t in turns_iter:
        t = t % 1 if isinstance(t, Fraction) else float(t) % 1.0
        if not any(turns_eq(t, u) for u in uniq):
            uniq.append(t)
    return CircleSet(False, tuple(sorted(uniq, key=float)))


def _trig(system, coeffs: dict) -> Func:
    """Trusted rotation result: drops zero coefficients (always float)."""
    return _func(system, {k: c for k, c in coeffs.items() if c}, False)


@record
class RotationSystem(_Leaf):
    """Rotation of the circle by ``theta`` turns.

    Freeness is a declaration, not a numeric guess: ``irrational=True``
    marks the angle as irrational, and then the angle should be a Surd.
    With ``irrational=False`` the angle is coerced to an exact Fraction,
    making every point periodic with the denominator as period.
    """

    theta: object  # Surd | Fraction | float
    irrational: bool = True
    kind, func_tag, set_words = "rotation", "tp", ("circle",)

    def __post_init__(self):
        th = self.theta
        if not self.irrational and not isinstance(th, Fraction):
            object.__setattr__(self, "theta", Fraction(th))
        if not 0 < self.theta_value() < 1:
            raise ValueError("theta must lie strictly between 0 and 1 turns")

    def theta_value(self) -> float:
        return float(self.theta)

    def theta_times_mod1(self, m: int):
        """m * theta mod 1; Fraction for rational angles, float otherwise."""
        if isinstance(self.theta, Surd):
            return self.theta.times_mod1(m)
        return (self.theta * m) % 1

    # points and dynamics

    def check_coord(self, c) -> None:
        if not isinstance(c, (Fraction, float, int)):
            raise SystemMismatchError(f"{c!r} is not a rotation point")

    def coord(self, v):
        return Fraction(v) % 1 if not isinstance(v, float) else v % 1.0

    def apply_sigma(self, x: Point, k: int) -> Point:
        step = self.theta_times_mod1(k)
        if isinstance(x.coord, Fraction) and isinstance(step, Fraction):
            return Point((x.coord + step) % 1, x.path)
        return Point((float(x.coord) + float(step)) % 1.0, x.path)

    def period(self, x: Point):
        return None if self.irrational else self.theta.denominator

    # closed sets

    def empty_set(self):
        return CircleSet(False, ())

    def whole_space(self):
        return CircleSet(True)

    def check_set(self, S) -> None:
        if not isinstance(S, CircleSet):
            raise SystemMismatchError("expected a circle set")

    def contains(self, S, x: Point) -> bool:
        return S.whole or any(turns_eq(x.coord, t) for t in S.turns)

    def union(self, A, B):
        if A.whole or B.whole:
            return CircleSet(True)
        return _circle_points(list(A.turns) + list(B.turns))

    def intersect(self, A, B):
        if A.whole:
            return B
        if B.whole:
            return A
        return _circle_points(t for t in A.turns if any(turns_eq(t, u) for u in B.turns))

    def subset(self, A, B) -> bool:
        if B.whole:
            return True
        if A.whole:
            return False
        return all(any(turns_eq(t, u) for u in B.turns) for t in A.turns)

    def points_to_set(self, pts):
        return _circle_points(p.coord for p in pts)

    def largest_invariant_subset(self, S):
        if S.whole:
            return S
        if self.irrational:
            return CircleSet(False, ())
        return _circle_points(
            t for t in S.turns
            if all(self.contains(S, y) for y in self.orbit_points(Point(t)))
        )

    def cover_representatives(self, S) -> list[Point]:
        if S.whole:
            if self.irrational:
                return [Point(0.0)]
            raise UnsupportedQueryError(
                "the whole circle is not a finite union of orbit closures for a rational rotation"
            )
        if self.irrational and S.turns:
            raise UnsupportedQueryError(
                "finite circle sets are not invariant under an irrational rotation")
        return self._rational_orbit_reps(S.turns)

    def all_orbits_in(self, S) -> list[Point]:
        if S.whole:
            raise UnsupportedQueryError("a full circle carries infinitely many orbits")
        if self.irrational:
            raise UnsupportedQueryError(
                "finite circle sets contain no full orbit under an irrational rotation")
        return self._rational_orbit_reps(S.turns)

    def _rational_orbit_reps(self, turns) -> list[Point]:
        reps: list[Point] = []
        for t in turns:
            if not any(any(turns_eq(q.coord, t) for q in self.orbit_points(r)) for r in reps):
                reps.append(Point(t))
        return reps

    def invariant_closed_sets(self):
        if self.irrational:
            return [self.empty_set(), self.whole_space()]
        return None

    def is_minimal(self) -> bool:
        return self.irrational

    def some_periodic_point(self):
        return None if self.irrational else Point(Fraction(0))

    def restriction(self, S):
        if S.whole:
            return self, (lambda x: x), (lambda f: f)
        raise UnsupportedQueryError("rotation subsystems are only the whole circle")

    # the config declaration, the function literal and circle, written and read

    def declaration(self, pad: str) -> str:
        th = self.theta
        th = f"surd {th.p} {th.q} {th.r} {th.d}" if isinstance(th, Surd) else str(th)
        return f"rotation {{ theta {th} irrational {'true' if self.irrational else 'false'} }}"

    @classmethod
    def read_declaration(cls, s):
        theta, irrational = None, True
        while not s.accept("}"):
            if s.expect_name("theta", "irrational").text == "irrational":
                irrational = s.expect_name("true", "false").text == "true"
            elif s.word("surd"):
                theta = Surd(*[s.integer() for _ in range(4)])
            else:
                theta = s.number()
        if theta is None:
            s.fail("rotation system needs theta")
        if isinstance(theta, Surd):
            if not irrational:
                s.fail("a surd angle declares an irrational rotation")
        else:
            theta = float(theta) if irrational else Fraction(theta)
        return cls(theta, irrational)

    def literal(self, f: Func) -> str:
        if not f.data:
            return "tp{0:0}"
        return "tp{" + ",".join(f"{k}:{sc.render_scalar(f.data[k])}" for k in sorted(f.data)) + "}"

    def read_func(self, s, exact: bool) -> Func:
        return Func(self, dict(s.braced(lambda: s.entry(False))))  # float whatever the mode

    def read_set(self, s, word: str):
        return CircleSet(True)

    # functions: {frequency: coefficient} trigonometric polynomials, float only

    def normal_form(self, data):
        coeffs = {int(k): c for k, c in data.items() if not sc.is_zero(c)}
        if any(sc.is_exact(c) for c in coeffs.values()):
            raise ModeMismatchError("the rotation model runs in float mode")
        return coeffs, False

    def scalars(self, data):
        return data.values()

    def const(self, value) -> Func:
        return Func(self, {0: value})

    def add(self, f: Func, g: Func) -> Func:
        keys = set(f.data) | set(g.data)
        return _trig(self, {k: f.data.get(k, 0j) + g.data.get(k, 0j) for k in keys})

    def mul(self, f: Func, g: Func) -> Func:
        """Coefficient convolution."""
        out: dict = {}
        for j, a in f.data.items():
            for k, b in g.data.items():
                out[j + k] = out.get(j + k, 0j) + a * b
        return _trig(self, out)

    def scale(self, c, f: Func) -> Func:
        return _trig(self, {k: c * w for k, w in f.data.items()})

    def conj(self, f: Func) -> Func:
        return _trig(self, {-k: sc.conj(c) for k, c in f.data.items()})

    def compose_sigma(self, f: Func, k: int) -> Func:
        return _trig(self, {j: c * rotation_phase(self, k * j) for j, c in f.data.items()})

    def eval(self, f: Func, x: Point):
        t = float(x.coord)
        return sum(
            (c * cmath.exp(2j * math.pi * ((t * k) % 1.0)) for k, c in f.data.items()),
            0j,
        )

    def _grid(self, f: Func) -> list[tuple[Point, float]]:
        """(point, |f|) at 8 * maxfreq + 16 equally spaced turns, from 0."""
        G = 8 * max((abs(k) for k in f.data), default=0) + 16
        return [(x, abs(self.eval(f, x))) for x in (Point(Fraction(j, G)) for j in range(G))]

    def supnorm_bounds(self, f: Func) -> tuple[float, float]:
        return (max(v for _, v in self._grid(f)), self.algnorm(f))

    def algnorm(self, f: Func) -> float:
        """The coefficient-sum (Wiener) norm."""
        return float(sum(abs(c) for c in f.data.values()))

    def zero_set(self, f: Func, tol: float):
        if not f.data:
            return CircleSet(True)
        turns = ((cmath.phase(r) / (2 * math.pi)) % 1.0 for r in sc.unit_circle_roots(f.data, tol))
        # a root at 1 with a tiny negative imaginary part gives -tiny % 1.0 == 1.0: turn 0
        return CircleSet(False, tuple(sorted(t if t < 1.0 else 0.0 for t in turns)))

    def vanishes_on(self, f: Func, S, tol: float) -> bool:
        if S.whole:
            return all(sc.is_zero(c, tol) for c in f.data.values())
        return all(sc.is_zero(self.eval(f, Point(t)), tol) for t in S.turns)

    def point_indicator(self, x: Point, exact: bool) -> Func:
        raise UnsupportedQueryError("circle points are not isolated")

    def separating_func(self, S, x: Point, exact: bool) -> Func:
        if S.whole:
            raise UnsupportedQueryError("no nonzero function vanishes on the whole circle")
        factors = (Func(self, {1: 1, 0: -cmath.exp(2j * math.pi * float(t))}) for t in S.turns)
        return reduce(self.mul, factors, self.const(1 + 0j))

    def character(self, m: int) -> Func:
        return _trig(self, {m: 1 + 0j})

    def cx_basis(self, ints_window, max_freq: int, exact: bool) -> list[Func]:
        return [self.character(k) for k in range(max_freq + 1)]

    def demote(self, f: Func) -> Func:
        return f

    def inverse(self, f: Func):
        if len(f.data) != 1:
            return None
        (k, c), = f.data.items()
        return _trig(self, {-k: 1.0 / c})

    def zero_on(self, S, f: Func) -> Func:
        if S.whole:
            return _trig(self, {})
        if not S.turns:
            return f
        raise UnsupportedQueryError("rotation projection supports only the empty or full circle")

    def point_where_nonzero(self, f: Func, tol: float):
        if not f.data:
            return None
        above = [(x, v) for x, v in self._grid(f) if v > tol]
        return max(above, key=lambda xv: xv[1], default=(None,))[0]  # the first largest

    # random functions, for the property suites (float whatever the mode)

    def random_func(self, rng, draw) -> Func:
        coeffs = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for k in range(-2, 3) if rng.random() < 0.6}
        return Func(self, coeffs or {0: complex(rng.uniform(-1, 1), 0)})

    def random_vanishing_on(self, S, rng, draw, zero) -> Func:
        if S.whole:
            return self.const(0j)
        return self.mul(self.separating_func(S, None, False), self.random_func(rng, draw))
