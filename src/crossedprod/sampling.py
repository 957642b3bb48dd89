"""Seeded random generators for functions, elements and ideal members.

Shared between the command-line property suites and the test suite; all
randomness flows through one ``random.Random`` instance for repeatability.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import scalars as sc
from .algebra import Element
from .dynsys import Func
from .reps_ideals import IdealHandle, canonical_px_lambda, orbit_kernel


def random_scalar(rng: random.Random, exact: bool):
    if exact:
        return sc.QComplex(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                           Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def random_func(system, rng: random.Random, exact: bool = False) -> Func:
    return system.random_func(rng, lambda: random_scalar(rng, exact))


def random_element(system, rng: random.Random, radius: int = 3,
                   exact: bool = False, density: float = 0.6) -> Element:
    coeffs = {}
    for n in range(-radius, radius + 1):
        if rng.random() < density:
            coeffs[n] = random_func(system, rng, exact)
    if not coeffs:
        coeffs[0] = random_func(system, rng, exact)
    return Element(system, coeffs)


def random_unimodular(rng: random.Random, exact: bool = False):
    if exact:
        return sc.rational_circle_point(Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
    import cmath, math
    return cmath.exp(2j * math.pi * rng.random())


def random_func_vanishing_on(system, S, rng: random.Random, exact: bool = False) -> Func:
    """A random function that vanishes on S and is generically nonzero
    elsewhere."""
    return system.random_vanishing_on(S, rng, lambda: random_scalar(rng, exact),
                                      sc.zero_like(exact))


def random_member(I: IdealHandle, rng: random.Random, radius: int = 3,
                  exact: bool = False) -> Element:
    """A random element of a canonical, kernel or intersection handle."""
    return I.random_member(rng, radius, exact)


def canonical_handles(system, lam_values=(1 + 0j, -1 + 0j, 1j),
                      exact: bool = False) -> list[IdealHandle]:
    """All canonical handles over orbit representatives, with the given
    torus parameters for the periodic families, in the given numeric mode;
    an exact parameter is kept as it is, a float one made exact."""
    if exact:
        lam_values = [lam if sc.is_exact(lam) else sc.qc(complex(lam).real, complex(lam).imag)
                      for lam in lam_values]
    out: list[IdealHandle] = []
    for x in system.orbit_reps():
        out.append(orbit_kernel(system, x))
        if system.period(x) is not None:
            out.extend(canonical_px_lambda(system, x, lam) for lam in lam_values)
    return out

