"""Workload ``float-transform``: float-mode transform-side calls on
generated ideals with planted, simple, well-separated unit-circle roots.

Every generated ideal has one generator ``g = sum_o 1_o c_o P_o(delta^p_o)``:
on each periodic orbit ``o`` (period ``p_o``) a constant ``c_o`` times a
polynomial whose roots ``lambda`` are planted on the unit circle, so the
zero set over ``o`` is every ``mu`` with ``mu^p_o`` planted.  An orbit
planted with no roots gets a nonzero constant (no zeros), a ``full`` orbit
gets zero (the whole circle).  All vanishing conditions of an orbit are then
the same polynomial.  The three ``kept`` queries instead scale the
conditions of one orbit by different non-real constants; ``poly_gcd``
judges those coprime and drops the orbit, so they fail every time.  The
orbit constants ``c_o`` are real: with a non-real one, even identical
conditions can be judged coprime, on some seeds only (a fourth kept query
shows that case on fixed inputs).

On the golden rotation the workload runs ``f_zero_set`` and ``hull`` on
trigonometric polynomials with planted roots, and ``drive_to_E``, checked
against the closed-form Dirichlet damping product.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import numpy as np

from crossedprod import (
    algebra, dynsys, funcspace, hullkernel, parsing, reps_ideals, synthesis,
    transform,
)

import model as M
from common import Op
from lib import Lib

C3 = M.Fin((1, 2, 0))
P11 = M.Fin((0, 2, 1, 4, 5, 3, 7, 8, 9, 10, 6))
SH = M.SHIFT
U = M.Union((M.SHIFT, M.Fin((1, 2, 0))))

CALLS = {
    "transform": ("zeros_of_ideal", "zi_closure", "ideal_of_torus_set",
                  "tilde_member", "ideal_member_via_S", "ideal_leq"),
    "funcspace": ("f_zero_set",),
    "hullkernel": ("hull",),
    "synthesis": ("drive_to_E",),
}

ROOT_TOL = 1e-6      # matching of roots, as the library's ROOT_MATCH_TOL
VALUE_TOL = 1e-8     # |transform| at a root, relative to the coefficient sum
TURN_TOL = 1e-7
DAMPING_RTOL = 1e-7
DRIVE_EPSILONS = (0.05, 0.001)
MAX_ROUNDS = 16


def unit(angle: float) -> complex:
    return cmath.exp(1j * angle)


def spread_angles(rng, k: int) -> list:
    """k angles at least 0.3 * 2pi/k apart."""
    off = rng.random() * 2 * math.pi
    return [off + 2 * math.pi * (i + 0.15 + 0.7 * rng.random()) / k for i in range(k)]


def poly_from_roots(roots) -> list:
    """Ascending coefficients of prod (z - r)."""
    c = [1 + 0j]
    for r in roots:
        c = [0j] + c
        for i in range(len(c) - 1):
            c[i] -= r * c[i + 1]
    return c


def rand_c(rng) -> complex:
    return cmath.rect(0.5 + 1.5 * rng.random(), 2 * math.pi * rng.random())


def rand_real(rng) -> complex:
    """Orbit constants are real: poly_gcd then divides equal leading
    coefficients exactly (see the kept queries)."""
    return complex(rng.choice((-1, 1)) * (0.5 + 1.5 * rng.random()))


# ---------------------------------------------------------------------------
# Orbits and planted ideals


def periodic_reps(msys) -> list:
    if isinstance(msys, M.Union):
        return [(i, y) for i, c in enumerate(msys.components) for y in periodic_reps(c)]
    if msys is M.SHIFT:
        return [M.INF]
    return msys.orbit_reps()


def orbit_key(msys, x):
    o = M.orbit(msys, x)
    if o is not None:
        return frozenset(o)
    return ("shift", x[0]) if isinstance(msys, M.Union) else ("shift", None)


class Planted:
    """A generated ideal with known zero set.

    ``plan`` maps each periodic orbit representative to None (the whole
    circle) or to the angles of its planted lambdas (none: no zeros).
    ``values``, for the kept queries only, gives the orbit function point by
    point in place of one real constant per orbit.  ``shift_zero`` lists
    shift components whose part of the generator is identically zero.
    """

    def __init__(self, msys, plan: dict, rng, values=None, shift_zero=()):
        self.msys = msys
        self.plan = plan
        self.shift_zero = set(shift_zero)
        coeffs: dict = {}
        for x, lams in plan.items():
            pts = M.orbit(msys, x)
            p = len(pts)
            if lams is None:
                continue
            poly = poly_from_roots([unit(a) for a in lams]) if lams else [1 + 0j]
            vals = values or dict.fromkeys(pts, rand_real(rng))
            for l, a_l in enumerate(poly):
                vec = coeffs.setdefault(l * p, {})
                for y in pts:
                    vec[y] = vals[y] * a_l
        # shift parts get exceptional values at integers unless planted zero
        exc_rng = random.Random(rng.random())
        self.gen = {}
        for n in sorted(set(coeffs) | {0}):
            vec = coeffs.get(n, {})
            f = M.tabulate(msys, lambda y, vec=vec: vec.get(y, 0j), _shift_ints(msys))
            if n == 0:
                f = self._with_exceptions(msys, f, exc_rng)
            self.gen[n] = f
        self.gen = M.normal(msys, self.gen)

    def _with_exceptions(self, msys, f, rng, path=None):
        if isinstance(msys, M.Union):
            return tuple(self._with_exceptions(c, p, rng, i) for i, (c, p) in
                         enumerate(zip(msys.components, f)))
        if msys is M.SHIFT and path not in self.shift_zero:
            v, exc = f
            return M.shift_func(v, {**exc, -2: rand_c(rng), 1: rand_c(rng)})
        return f

    def zero_set(self) -> dict:
        """orbit key -> None (full circle) or the planted mus."""
        out = {}
        for x, lams in self.plan.items():
            key = orbit_key(self.msys, x)
            if lams is None:
                out[key] = None
            elif lams:
                p = len(M.orbit(self.msys, x))
                out[key] = [unit((a + 2 * math.pi * j) / p) for a in lams for j in range(p)]
        for i in self.shift_zero:
            out[("shift", i)] = None
        return out

    def lam_handles(self) -> list:
        """The canonical parts of the synthesized closure, in model form."""
        out = []
        for x, lams in self.plan.items():
            if lams is None:
                out.append(("Qx", orbit_key(self.msys, x), None))
            else:
                out.extend(("Pxl", orbit_key(self.msys, x), unit(a)) for a in lams)
        for i in self.shift_zero:
            out.append(("Px", ("shift", i), None))
        return out


def _shift_ints(msys):
    if isinstance(msys, M.Union):
        return tuple(set() for _ in msys.components)
    return set()


def check_planted(pl: Planted) -> None:
    """Transform values of the generator vanish at every planted zero (all
    orbit points, all mu over each planted lambda)."""
    scale = sum(abs(complex(v)) for f in pl.gen.values() for v in _values(pl.msys, f))
    for x, lams in pl.plan.items():
        pts = M.orbit(pl.msys, x)
        p = len(pts)
        if lams is None:
            continue
        for a in lams:
            for j in range(p):
                mu = unit((a + 2 * math.pi * j) / p)
                for y in pts:
                    if abs(M.transform_value(pl.msys, pl.gen, y, mu)) > 1e-12 * scale:
                        raise AssertionError("planted root is not a zero")


def _values(msys, f):
    if isinstance(msys, M.Union):
        for c, p in zip(msys.components, f):
            yield from _values(c, p)
    elif msys is M.SHIFT:
        yield f[0]
        yield from f[1].values()
    else:
        yield from f


# ---------------------------------------------------------------------------
# Reading the library's answers


def model_point(P):
    c = M.INF if P.coord is dynsys.INF else P.coord
    return (P.path[0], c) if P.path else c


def render_torus(T):
    out = []
    for e in T.entries:
        ls = e.lamset
        kind = type(ls).__name__
        if kind == "FullCircle":
            vals = None
        elif kind == "FiniteRoots":
            vals = tuple(complex(r) for r in ls.roots)
        else:
            vals = tuple(complex(c) for c in ls.coeffs)
        out.append((model_point(e.point), bool(e.use_closure), kind, vals))
    return tuple(out)


def _unit_roots(kind, vals):
    if kind == "FiniteRoots":
        return list(vals)
    cs = list(vals)
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        return []
    return [complex(r) / abs(r) for r in np.roots(cs[::-1]) if abs(abs(r) - 1) <= 1e-5]


def same_roots(got, want) -> bool:
    """Every wanted root is matched by exactly one returned root."""
    if len(got) != len(want):
        return False
    left = list(got)
    for w in want:
        hit = [g for g in left if abs(g - w) <= ROOT_TOL]
        if len(hit) != 1:
            return False
        left.remove(hit[0])
    return True


def verify_zero_set(pl: Planted, rendered) -> bool:
    """The returned zero set equals the planted one: no orbit or root
    missing, none spurious, and the generator's transform vanishes at each
    returned root."""
    want = pl.zero_set()
    got: dict = {}
    scale = sum(abs(complex(v)) for f in pl.gen.values() for v in _values(pl.msys, f))
    for x, closure, kind, vals in rendered:
        key = orbit_key(pl.msys, x)
        if kind == "FullCircle":
            got[key] = None
            continue
        roots = _unit_roots(kind, vals)
        for mu in roots:
            for y in M.orbit(pl.msys, x) or ():
                if abs(M.transform_value(pl.msys, pl.gen, y, mu)) > VALUE_TOL * scale:
                    return False
        if roots:
            got.setdefault(key, []).extend(roots)
    if set(got) != set(want):
        return False
    for key, w in want.items():
        g = got[key]
        if (g is None) != (w is None):
            return False
        if w is not None and not same_roots(g, w):
            return False
    return True


def render_ideal(I):
    parts = getattr(I, "parts", (I,))
    out = []
    for h in parts:
        lam = getattr(h, "lam", None)
        out.append((type(h).__name__, model_point(h.x), None if lam is None else complex(lam)))
    return tuple(out)


_KINDS = {"PxIdeal": "Px", "QxIdeal": "Qx", "PxLambdaIdeal": "Pxl"}


def verify_handles(msys, want, rendered) -> bool:
    """The intersection's canonical parts match the wanted (kind, orbit, lambda)
    list one to one."""
    left = list(want)
    for name, x, lam in rendered:
        kind = _KINDS.get(name)
        key = orbit_key(msys, x)
        hit = [w for w in left if w[0] == kind and w[1] == key and (
            lam is None or (w[2] is not None and abs(lam - w[2]) <= ROOT_TOL))]
        if len(hit) != 1:
            return False
        left.remove(hit[0])
    return not left


# ---------------------------------------------------------------------------
# Membership inputs


def member_element(msys, T: dict, rng, member: bool) -> dict:
    """An element whose transform vanishes on T (orbit rep -> planted
    lambdas), or one that misses a single condition.

    On each orbit of T the element is F * Q(delta^p) with Q vanishing at the
    planted lambdas and F random; other orbits and the shift limit carry a
    random polynomial.
    """
    coeffs: dict = {}
    F = {}
    for x in periodic_reps(msys):
        pts = M.orbit(msys, x)
        p = len(pts)
        if x in T:
            poly = poly_from_roots([unit(a) for a in T[x]])
        else:
            poly = [rand_c(rng) for _ in range(3)]
        for y in pts:
            F[y] = rand_c(rng)
        for l, q in enumerate(poly):
            vec = coeffs.setdefault(l * p, {})
            for y in pts:
                vec[y] = F[y] * q
    if not member:
        x = next(iter(T))
        coeffs[0][x] = coeffs[0][x] + rand_c(rng)
    a = {n: M.tabulate(msys, lambda y, vec=vec: vec.get(y, 0j), _shift_ints(msys))
         for n, vec in coeffs.items()}
    return M.normal(msys, a)


def satisfies(msys, a, T: dict) -> bool:
    """Direct check of the vanishing conditions: the transform vanishes at
    every mu over each planted lambda, on every orbit point of T."""
    scale = sum(abs(complex(v)) for f in a.values() for v in _values(msys, f))
    for x, lams in T.items():
        pts = M.orbit(msys, x)
        p = len(pts)
        for ang in lams:
            for j in range(p):
                mu = unit((ang + 2 * math.pi * j) / p)
                if any(abs(M.transform_value(msys, a, y, mu)) > 1e-10 * scale for y in pts):
                    return False
    return True


# ---------------------------------------------------------------------------
# The golden rotation


def golden_frac(m: int) -> float:
    """frac(m * theta) for theta = (sqrt 5 - 1)/2, to full double precision."""
    scale = 10 ** 60
    s5 = math.isqrt(5 * scale * scale)
    return float(Fraction(m * (s5 - scale), 2 * scale) % 1)


def dirichlet_abs(order: int, n: int) -> float:
    """|(1/N) sum_{m<N} exp(2 pi i m n theta)| = |sin(pi N x) / (N sin(pi x))|."""
    x = golden_frac(n)
    return abs(math.sin(math.pi * golden_frac(order * n)) / (order * math.sin(math.pi * x)))


def expected_drive(coeff_norms: dict, epsilon: float):
    """Rounds (order, residual), reached flag and damping of drive_to_E."""
    factors = {n: 1.0 for n in coeff_norms if n != 0}
    residual = math.fsum(v for n, v in coeff_norms.items() if n != 0)
    rounds = [(0, residual)]
    order = 2
    for _ in range(MAX_ROUNDS):
        if rounds[-1][1] <= epsilon:
            break
        for n in factors:
            factors[n] *= dirichlet_abs(order, n)
        residual = math.fsum(coeff_norms[n] * factors[n] for n in factors)
        rounds.append((order, residual))
        order *= 2
    return rounds, rounds[-1][1] <= epsilon, factors


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-15


def trig_eval(coeffs: dict, t: float) -> complex:
    return sum(c * cmath.exp(2j * math.pi * k * t) for k, c in coeffs.items())


def planted_trig(rng, degree: int, shift: int):
    """Coefficients {k - shift: c_k} of c * prod (z - exp(2 pi i t_j)), and
    the planted turns t_j."""
    turns = sorted((a / (2 * math.pi)) % 1.0 for a in spread_angles(rng, degree))
    c = rand_c(rng)
    poly = poly_from_roots([cmath.exp(2j * math.pi * t) for t in turns])
    return {k - shift: c * v for k, v in enumerate(poly)}, turns


def parse_circle(text: str):
    if text == "circle":
        return None
    body = text[1:-1]
    return [float(t) for t in body.split(",")] if body else []


def turn_dist(a: float, b: float) -> float:
    d = (a - b) % 1.0
    return min(d, 1.0 - d)


# ---------------------------------------------------------------------------
# Operations


def _planted_ideals(rng) -> list:
    a = lambda k: spread_angles(rng, k)  # noqa: E731  (fresh angles per orbit)
    out = [
        Planted(C3, {0: a(1)}, rng),
        Planted(C3, {0: a(3)}, rng),
        Planted(P11, {0: a(2), 1: a(1), 3: None, 6: []}, rng),
        Planted(P11, {0: [], 1: None, 3: a(2), 6: a(3)}, rng),
        Planted(SH, {M.INF: a(2)}, rng),
        Planted(SH, {M.INF: a(3)}, rng),
        Planted(U, {(0, M.INF): a(1), (1, 0): a(2)}, rng),
        Planted(U, {(0, M.INF): None, (1, 0): a(3)}, rng, shift_zero=(0,)),
    ]
    for pl in out:
        check_planted(pl)
    return out


def _kept_ideals() -> list:
    """Seed-independent generated ideals that ``poly_gcd`` gets wrong.

    In the first three the conditions of one orbit differ by non-real
    scales (the first is the CLI reproduction).  In the fourth they are
    identical, but the complex quotient of their leading coefficient
    0.3+0.56i by itself is not exactly 1, which leaves a rounding-level
    remainder all the same.
    """
    vals3 = {0: 1 + 0j, 1: 0.3 + 0.2j, 2: 0.7 + 0j}
    vals5 = {6: 1 + 0j, 7: 0.3 + 0.2j, 8: 0.7 + 0j, 9: -0.5j, 10: 0.9 + 0.1j}
    rng = random.Random(0)
    return [
        Planted(C3, {0: [0.0]}, rng, values=vals3),
        Planted(U, {(0, M.INF): None, (1, 0): [0.0]}, rng,
                values={(1, y): v for y, v in vals3.items()}, shift_zero=(0,)),
        Planted(P11, {0: None, 1: None, 3: None, 6: [0.0]}, rng, values=vals5),
        Planted(C3, {0: [0.0]}, rng, values=dict.fromkeys(range(3), 0.3 + 0.56j)),
    ]


def build(seed: int) -> list:
    rng = random.Random(seed)
    lib = Lib(exact=False)
    ops = []

    def gen_ideal(pl):
        return reps_ideals.generated_ideal(lib.system(pl.msys), [lib.element(pl.msys, pl.gen)])

    for pl in _planted_ideals(rng):
        msys, lsys = pl.msys, lib.system(pl.msys)
        I = gen_ideal(pl)
        ops.append(Op("zeros_of_ideal", lambda I=I: transform.zeros_of_ideal(I),
                      render_torus, lambda r, pl=pl: verify_zero_set(pl, r)))
        want = pl.lam_handles()
        ops.append(Op("zi_closure", lambda I=I: transform.zi_closure(I), render_ideal,
                      lambda r, msys=msys, want=want: verify_handles(msys, want, r)))
        ops.extend(_leq_ops(lib, pl, I))

        # the planted zero set as a torus literal, alternating root lists and
        # root polynomials
        entries = []
        for i, (x, lams) in enumerate(pl.plan.items()):
            if lams == []:
                continue
            lx = lib.point(msys, x)
            p = M.period(msys, x)
            if lams is None:
                ls = transform.FullCircle()
            elif i % 2:
                ls = transform.FiniteRoots(tuple(
                    unit((ang + 2 * math.pi * j) / p) for ang in lams for j in range(p)))
            else:
                nu = poly_from_roots([unit(ang) for ang in lams])
                poly = [0j] * (p * (len(nu) - 1) + 1)
                for l, c in enumerate(nu):
                    poly[l * p] = c
                ls = transform.PolynomialRoots(tuple(poly))
            entries.append(transform.TorusEntry(lx, ls))
        for i in pl.shift_zero:
            entries.append(transform.TorusEntry(lib.point(msys, (i, 0)),
                                                transform.FullCircle(), use_closure=True))
        T = transform.TorusSubset(lsys, tuple(entries))
        ops.append(Op("ideal_of_torus_set", lambda T=T: transform.ideal_of_torus_set(T),
                      render_ideal, lambda r, msys=msys, want=want: verify_handles(msys, want, r)))

        # membership against the planted roots of the orbits that have some
        Tm = {x: lams for x, lams in pl.plan.items() if lams}
        Tl = transform.TorusSubset(lsys, tuple(
            transform.TorusEntry(lib.point(msys, x), transform.FiniteRoots(tuple(
                unit((ang + 2 * math.pi * j) / M.period(msys, x))
                for ang in lams for j in range(M.period(msys, x)))))
            for x, lams in Tm.items()))
        for want_member in (True, False):
            a = member_element(msys, Tm, rng, want_member)
            if satisfies(msys, a, Tm) != want_member:
                raise AssertionError("membership generator broke")
            la = lib.element(msys, a)
            ops.append(Op(f"tilde_member/{want_member}",
                          lambda Tl=Tl, la=la: transform.tilde_member(Tl, la),
                          bool, lambda v, w=want_member: v is w))
            ops.append(Op(f"ideal_member_via_S/{want_member}",
                          lambda Tl=Tl, la=la: transform.ideal_member_via_S(Tl, la),
                          bool, lambda v, w=want_member: v is w))

    for pl in _kept_ideals():
        I = gen_ideal(pl)
        ops.append(Op("zeros_of_ideal/kept", lambda I=I: transform.zeros_of_ideal(I),
                      render_torus, lambda r, pl=pl: verify_zero_set(pl, r), kept=True))

    ops.extend(_rotation_ops(rng))
    return ops


def _leq_ops(lib, pl: Planted, I) -> list:
    """I <= Pxl at a planted and at an unplanted lambda, I <= Qx and I <= K
    on one orbit; expected answers from the planted data."""
    msys, lsys = pl.msys, lib.system(pl.msys)
    ops = []
    root_orbits = [(x, lams) for x, lams in pl.plan.items() if lams]
    x, lams = root_orbits[0]
    lx = lib.point(msys, x)
    hit = unit(lams[0])
    gaps = sorted(a % (2 * math.pi) for a in lams)
    miss = unit((gaps[0] + (gaps[1] if len(gaps) > 1 else gaps[0] + 2 * math.pi)) / 2)
    full = [x for x, lams in pl.plan.items() if lams is None]
    qx_point = full[0] if full else x
    targets = [
        (reps_ideals.canonical_px_lambda(lsys, lx, hit), True),
        (reps_ideals.canonical_px_lambda(lsys, lx, miss), False),
        (reps_ideals.canonical_qx(lsys, lib.point(msys, qx_point)), bool(full)),
    ]
    pts = set(M.orbit(msys, qx_point))
    S = _closed_set(msys, pts)
    targets.append((reps_ideals.kernel_ideal(lsys, lib.closed_set(msys, S)), bool(full)))
    for J, want in targets:
        ops.append(Op(f"ideal_leq/{type(J).__name__}/{want}",
                      lambda J=J: transform.ideal_leq(I, J), bool,
                      lambda v, want=want: v is want))
    return ops


def _closed_set(msys, pts):
    """Model set (as Lib.closed_set takes it) of finitely many periodic points."""
    if isinstance(msys, M.Union):
        return tuple(_closed_set(c, {y for i, y in pts if i == k})
                     for k, c in enumerate(msys.components))
    if msys is M.SHIFT:
        return (frozenset(), M.INF in pts, False)
    return frozenset(pts)


def _rotation_ops(rng) -> list:
    GR = dynsys.RotationSystem(dynsys.GOLDEN_CONJUGATE)
    ops = []
    for degree, shift in ((3, 1), (4, 0), (6, 2), (8, 3)):
        coeffs, turns = planted_trig(rng, degree, shift)
        f = funcspace.trig_poly(GR, coeffs)
        scale = sum(abs(c) for c in coeffs.values())

        def verify(text, coeffs=coeffs, turns=turns, scale=scale):
            got = parse_circle(text)
            if got is None or len(got) != len(turns):
                return False
            for t in got:
                if abs(trig_eval(coeffs, t)) > VALUE_TOL * scale:
                    return False
            return all(sum(turn_dist(t, u) <= TURN_TOL for u in got) == 1 for t in turns)
        ops.append(Op(f"f_zero_set/deg{degree}", lambda f=f: funcspace.f_zero_set(f),
                      parsing.render_set, verify))

    for _ in range(2):
        gens = []
        for _ in range(2):
            cs = {n: planted_trig(rng, 3, 1)[0] for n in (-1, 0, 1)}
            gens.append(algebra.element(GR, {n: funcspace.trig_poly(GR, c) for n, c in cs.items()}))
        I = reps_ideals.generated_ideal(GR, gens)
        # an irrational rotation has no nonempty finite invariant set, so the
        # hull of nonzero coefficients with finitely many zeros is empty
        ops.append(Op("hull/generated_rotation", lambda I=I: hullkernel.hull(I),
                      lambda h: parsing.render_set(h.subset), lambda text: text == "{}"))

    for eps in DRIVE_EPSILONS:
        # unit-modulus coefficients: the number of rounds, and so the work,
        # is the same for every seed
        cs = {n: {k: unit(2 * math.pi * rng.random()) for k in rng.sample(range(-2, 3), 2)}
              for n in range(-2, 3)}
        a = algebra.element(GR, {n: funcspace.trig_poly(GR, c) for n, c in cs.items()})
        norms = {n: math.fsum(abs(v) for v in c.values()) for n, c in cs.items()}
        rounds, reached, damping = expected_drive(norms, eps)

        def render(rep):
            return (tuple(rep.rounds), bool(rep.reached), tuple(sorted(rep.damping.items())))

        def verify(got, rounds=rounds, reached=reached, damping=damping):
            g_rounds, g_reached, g_damping = got
            if g_reached != reached or len(g_rounds) != len(rounds):
                return False
            for (o1, r1), (o2, r2) in zip(g_rounds, rounds):
                if o1 != o2 or not close(r1, r2, DAMPING_RTOL):
                    return False
            return dict(g_damping).keys() == damping.keys() and all(
                close(v, damping[n], DAMPING_RTOL) for n, v in g_damping)
        ops.append(Op(f"drive_to_E/eps{eps}", lambda a=a, eps=eps: synthesis.drive_to_E(a, eps),
                      render, verify))
    return ops
