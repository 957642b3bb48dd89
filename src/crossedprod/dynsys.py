"""Points and functions of desk-scale dynamical systems.

Four models are supported, each a system class in its own module: a finite
permutation system, the one-point compactification of the integer shift, a
circle rotation (with a declared irrationality flag), and finite disjoint
unions of these.  Each model module holds its system class and its closed
set class, in a normal form closed under the set algebra the hull/kernel
machinery needs.  The system class owns its model: point checks and sigma
iteration, the set algebra, the kernels of the function model :class:`Func`,
and the syntax of its config declaration, function literal and set
literals, both written and read.  This module holds what the models share
(points, :class:`Func` and its zero test, the model base :class:`_Model` and
the leaf defaults :class:`_Leaf`), resolves each model's classes by name on
first use (the parser finds a declared model's class that way, and
``dynsys.FiniteSet`` and the like still answer), and has the checked entry
points.

The ``repr`` of a point, a closed set or a function is its literal in the
grammar of :mod:`.parsing`, which reads it back through the shared readers
there and the model's own readers.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import reduce
from importlib import import_module

from . import scalars as sc
from .errors import SystemMismatchError, UnsupportedQueryError
from .records import record


class _Infinity:
    """Marker for the fixed point at infinity of the compactified shift."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()


# ---------------------------------------------------------------------------
# Points


@record
class Point:
    """A point of a system: component path plus leaf coordinate.

    The path is empty for non-union systems; for unions it lists the
    component index at each nesting level.  The coordinate is an int for
    finite systems, an int or INF for the shift, and a turns value
    (Fraction or float in [0,1)) for rotations.
    """

    coord: object
    path: tuple[int, ...] = ()

    def __init__(self, coord, path=()):  # written out: the most built record
        object.__setattr__(self, "coord", coord)
        object.__setattr__(self, "path", path)

    def __repr__(self):
        c = self.coord
        base = sc.fmt_real(c) if isinstance(c, float) else str(c)
        for i in reversed(self.path):
            base = f"c{i}:{base}"
        return base


def pt(coord, *path) -> Point:
    return Point(coord, tuple(path))


def in_component(index: int, x: Point) -> Point:
    return Point(x.coord, (index,) + x.path)


# ---------------------------------------------------------------------------
# Functions


@record
class Func:
    """A function in the C(X) model of its system.

    data layout:
      finite system   -> tuple of scalars, one per point
      shift system    -> (value at infinity, {n: value} finite exceptions)
      rotation system -> {frequency: coefficient} trigonometric polynomial
      union system    -> tuple of component Funcs

    ``Func(system, data)`` validates its data and decides the numeric mode
    once; the kernels build their results through :func:`_func`, which
    trusts its inputs.
    """

    __slots__ = ("system", "data", "exact")  # exact: a slot, not a field
    system: object
    data: object

    def __init__(self, system, data):
        data, exact = system.normal_form(data)
        _set_system(self, system)
        _set_data(self, data)
        _set_exact(self, exact)

    def __repr__(self):
        return self.system.literal(self)


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


def f_is_zero(f: Func, tol: float = 0.0) -> bool:
    return all(sc.is_zero(v, tol) for v in f.system.scalars(f.data))


def rotation_phase(system, m: int) -> complex:
    """exp(2 pi i theta m) for a rotation system, reduced mod 1 before
    exponentiating."""
    return cmath.exp(2j * math.pi * float(system.theta_times_mod1(m)))


# ---------------------------------------------------------------------------
# Systems


class _Model:
    """What every model, union included, answers the same way."""

    __slots__ = ()

    def is_free(self) -> bool:
        """No periodic point: the condition of the spectral synthesis theorem."""
        return self.some_periodic_point() is None

    def orbit_points(self, x: Point) -> list[Point]:
        p = self.period(x)
        if p is None:
            raise UnsupportedQueryError("orbit_points needs a periodic point")
        return [self.apply_sigma(x, k) for k in range(p)]

    def points(self) -> list[Point]:
        raise UnsupportedQueryError("point enumeration needs finite components")

    def character(self, m: int) -> Func:
        """The circle character z^m, on the rotation model only."""
        raise UnsupportedQueryError("character averaging runs on the rotation model")

    def exceptional_ints(self, f: Func) -> set:
        return set()

    def common_zeros(self, funcs, tol: float):
        """The closed set where every function of funcs vanishes within tol."""
        return reduce(self.intersect, (self.zero_set(f, tol) for f in funcs), self.whole_space())


class _Leaf(_Model):
    """Methods shared by the three leaf models.

    A point handed to a leaf method may carry the path of the union the
    leaf sits in: leaf methods read only its coordinate and keep its path.
    """

    __slots__ = ()
    set_words = ()  # the words that start the model's own set literals

    def leaf(self, path: tuple[int, ...]):
        if path:
            raise SystemMismatchError("point path descends below a leaf system")
        return self

    def coord(self, v):
        """The coordinate a literal number names, or None if it names none:
        an integer here, a turn on the rotation."""
        if isinstance(v, (float, Fraction)) and not float(v).is_integer():
            return None
        return int(v)

    def orbit_closure(self, x: Point):
        if self.period(x) is None:
            # aperiodic orbits (shift integers, irrational rotations) are dense
            return self.whole_space()
        return self.points_to_set(self.orbit_points(x))

    def orbit_reps(self) -> list[Point]:
        whole = self.whole_space()
        try:
            return self.all_orbits_in(whole)
        except UnsupportedQueryError:
            return self.cover_representatives(whole)

    # Finite and shift functions are values at points, changed pointwise
    # through _map and _combine; the rotation's coefficient model overrides.

    def add(self, f: Func, g: Func) -> Func:
        return self._combine(f, g, operator.add)

    def mul(self, f: Func, g: Func) -> Func:
        return self._combine(f, g, operator.mul)

    def scale(self, c, f: Func) -> Func:
        return self._map(f, lambda v: c * v, f.exact)

    def conj(self, f: Func) -> Func:
        return self._map(f, sc.conj, f.exact)

    def demote(self, f: Func) -> Func:
        return self._map(f, complex, False)

    def inverse(self, f: Func):
        if any(sc.is_zero(v) for v in self.scalars(f.data)):
            return None
        one = sc.one_like(f.exact)
        return self._map(f, lambda v: one / v, f.exact)

    def supnorm_bounds(self, f: Func) -> tuple[float, float]:
        m = max((abs(v) for v in self.scalars(f.data)), default=0.0)
        return (m, m)

    def algnorm(self, f: Func) -> float:
        return self.supnorm_bounds(f)[0]


_MODELS = {name: module for module, names in {
    "finite": "FiniteSystem FiniteSet", "shift": "ShiftSystem ShiftSet",
    "rotation": "RotationSystem CircleSet Surd GOLDEN_CONJUGATE turns_eq TURN_TOL",
    "union": "UnionSystem UnionSet"}.items() for name in names.split()}


def __getattr__(name):
    """A model's system or set class (or the rotation's angle type and turn
    comparison), from the model's own module."""
    if name not in _MODELS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODELS[name]}", __package__), name)
    return value


# ---------------------------------------------------------------------------
# Checked entry points


def validate_point(sys, x: Point):
    """Check that x is a point of sys; returns the leaf system it lies in."""
    leaf = sys.leaf(x.path)
    leaf.check_coord(x.coord)
    return leaf


def apply_sigma(sys, x: Point, k: int) -> Point:
    """k-th iterate of the homeomorphism applied to x."""
    return validate_point(sys, x).apply_sigma(x, k)


def period(sys, x: Point):
    """Least p >= 1 with sigma^p(x) = x, or None for aperiodic points."""
    return validate_point(sys, x).period(x)


def is_periodic(sys, x: Point) -> bool:
    return period(sys, x) is not None


def orbit_points(sys, x: Point) -> list[Point]:
    """The forward orbit of a periodic point, starting at x."""
    return validate_point(sys, x).orbit_points(x)


def empty_set(sys):
    return sys.empty_set()


def whole_space(sys):
    return sys.whole_space()


def set_equal(sys, A, B) -> bool:
    sys.check_set(A)
    sys.check_set(B)
    return sys.subset(A, B) and sys.subset(B, A)


def orbit_closure(sys, x: Point):
    """Closure of the orbit of x."""
    validate_point(sys, x)
    return sys.orbit_closure(x)


def is_invariant_closed(sys, S) -> bool:
    sys.check_set(S)
    inv = sys.largest_invariant_subset(S)
    return sys.subset(inv, S) and sys.subset(S, inv)


def is_free(sys) -> bool:
    """No periodic points in any component."""
    return sys.is_free()


def is_minimal(sys) -> bool:
    """Every orbit dense."""
    return sys.is_minimal()
