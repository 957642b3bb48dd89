"""Workload ``exact-oracles``: exact-mode library calls, checked against the
Gaussian-rational reference model.

Systems: the 3-cycle, an 11-point permutation with orbits of period 1, 2,
3 and 5, an 8-cycle, the compactified shift, and the union of the shift
and the 3-cycle.  Every element has full support on indices -r..r with
nonzero Gaussian-rational values; the structure of a round (systems,
radii, handles, member/non-member split) is fixed and only the values
come from the seed.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from crossedprod import algebra, hullkernel, parsing, reps_ideals

import model as M
from common import Op
from lib import Lib

C3 = M.Fin((1, 2, 0))
P11 = M.Fin((0, 2, 1, 4, 5, 3, 7, 8, 9, 10, 6))
C8 = M.Fin((1, 2, 3, 4, 5, 6, 7, 0))
SH = M.SHIFT
U = M.Union((M.SHIFT, M.Fin((1, 2, 0))))

# Public functions this workload calls, per module (the traced run wraps these).
CALLS = {
    "algebra": ("alg_mul", "alg_adj", "alg_norm"),
    "reps_ideals": ("ideal_member", "rep_periodic", "rep_aperiodic_window",
                    "ideal_behaviour"),
    "hullkernel": ("hull",),
}

ALGEBRA_RADII = (1, 2, 3, 4)
MEMBER_RADIUS = 3
REP_RADIUS = 3
WINDOW = 4

WHOLE_SHIFT = (frozenset(), True, True)
INF_ONLY = (frozenset(), True, False)
NO_SHIFT = (frozenset(), False, False)


# ---------------------------------------------------------------------------
# Random model values


def rand_gq(rng: random.Random) -> M.GQ:
    while True:
        z = M.GQ(Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
                 Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
        if z:
            return z


def rand_func(msys, rng, scalar=rand_gq):
    """A function with every value nonzero (shift: two exceptional ints)."""
    if isinstance(msys, M.Union):
        return tuple(rand_func(c, rng, scalar) for c in msys.components)
    if msys is M.SHIFT:
        return M.shift_func(scalar(rng), {n: scalar(rng) for n in rng.sample(range(-3, 4), 2)})
    return tuple(scalar(rng) for _ in range(msys.n))


def rand_elem(msys, r: int, rng, scalar=rand_gq) -> dict:
    return {n: rand_func(msys, rng, scalar) for n in range(-r, r + 1)}


def rand_lam(rng) -> M.GQ:
    """An exact unimodular scalar other than +-1."""
    return M.circle_point(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(2, 6)))


# ---------------------------------------------------------------------------
# Handles in model form: ("Px", x) | ("Qx", x) | ("Pxl", x, lam) |
# ("K", S) | ("meet", parts).  Sets: finite -> frozenset, shift ->
# (ints, has_inf, cofinite), union -> tuple of parts.


def set_points(msys, S):
    """Points of a set whose shift parts are finite; None marks a whole
    shift component, which is handled apart."""
    if isinstance(msys, M.Union):
        out = []
        for i, (c, part) in enumerate(zip(msys.components, S)):
            inner = set_points(c, part)
            if inner is None:
                return None
            out.extend((i, y) for y in inner)
        return out
    if msys is M.SHIFT:
        ints, has_inf, cofinite = S
        if cofinite:
            return None
        return sorted(ints) + ([M.INF] if has_inf else [])
    return sorted(S)


def whole_shift_paths(msys, S):
    if isinstance(msys, M.Union):
        return [(i,) for i, (c, part) in enumerate(zip(msys.components, S))
                if c is M.SHIFT and part[2]]
    return [()] if msys is M.SHIFT and S[2] else []


def finite_part(msys, S):
    """S with whole shift components replaced by the empty set."""
    if isinstance(msys, M.Union):
        return tuple(finite_part(c, p) for c, p in zip(msys.components, S))
    if msys is M.SHIFT and S[2]:
        return NO_SHIFT
    return S


def is_member(msys, h, a: dict) -> bool:
    kind = h[0]
    if kind == "Px":  # aperiodic shift point: its orbit closure is the whole component
        return M.shift_part_zero(msys, a, h[1][:-1] if isinstance(msys, M.Union) else ())
    if kind == "Qx":
        return M.vanishes_on(msys, a, M.orbit(msys, h[1]))
    if kind == "Pxl":
        return all(not v for v in M.residue_sums(msys, a, h[1], h[2]))
    if kind == "K":
        S = h[1]
        return (all(M.shift_part_zero(msys, a, p) for p in whole_shift_paths(msys, S))
                and M.vanishes_on(msys, a, set_points(msys, finite_part(msys, S))))
    return all(is_member(msys, p, a) for p in h[1])


def _set_value(msys, f, x, v):
    if isinstance(msys, M.Union):
        i, y = x
        parts = list(f)
        parts[i] = _set_value(msys.components[i], f[i], y, v)
        return tuple(parts)
    if msys is M.SHIFT:
        w, exc = f
        if x == M.INF:
            return M.shift_func(v, {n: exc.get(n, w) for n in exc})
        return M.shift_func(w, {**exc, x: v})
    vals = list(f)
    vals[x] = v
    return tuple(vals)


def _zero_shift(msys, f, path):
    if not path:
        return M.shift_func(M.GQ(), {})
    parts = list(f)
    parts[path[0]] = _zero_shift(msys.components[path[0]], f[path[0]], path[1:])
    return tuple(parts)


def make_member(msys, h, a: dict) -> dict:
    a = dict(a)
    kind = h[0]
    if kind == "Px":
        path = h[1][:-1] if isinstance(msys, M.Union) else ()
        return {n: _zero_shift(msys, f, path) for n, f in a.items()}
    if kind in ("Qx", "K"):
        if kind == "K":
            for p in whole_shift_paths(msys, h[1]):
                a = {n: _zero_shift(msys, f, p) for n, f in a.items()}
            pts = set_points(msys, finite_part(msys, h[1]))
        else:
            pts = M.orbit(msys, h[1])
        for n in a:
            for y in pts:
                a[n] = _set_value(msys, a[n], y, M.GQ())
        return a
    if kind == "Pxl":
        x, lam = h[1], h[2]
        pts = M.orbit(msys, x)
        p = len(pts)
        for y in pts:
            for j in range(p):
                idx = sorted(n for n in a if (n - j) % p == 0)
                if not idx:
                    continue
                n0 = idx[-1]
                s = M.GQ()
                for n in idx[:-1]:
                    s = s + M.power(lam, (n - j) // p) * M.f_at(msys, a[n], y)
                a[n0] = _set_value(msys, a[n0], y, -(s * M.power(lam, -((n0 - j) // p))))
        return a
    for part in h[1]:
        a = make_member(msys, part, a)
    return a


def make_nonmember(msys, h, a: dict, rng) -> dict:
    """A member with one constrained value moved off its condition."""
    a = make_member(msys, h, a)
    first = h[1][0] if h[0] == "meet" else h
    kind = first[0]
    if kind == "Px":
        y = (first[1][0], M.INF) if isinstance(msys, M.Union) else M.INF
    elif kind == "K":
        paths = whole_shift_paths(msys, first[1])
        if paths:
            y = (paths[0][0], M.INF) if paths[0] else M.INF
        else:
            y = set_points(msys, first[1])[0]
    else:
        y = first[1]
    n = max(a)
    a[n] = _set_value(msys, a[n], y, M.f_at(msys, a[n], y) + rand_gq(rng))
    return a


def lib_handle(lib: Lib, msys, h):
    lsys = lib.system(msys)
    kind = h[0]
    if kind == "Px":
        return reps_ideals.canonical_px(lsys, lib.point(msys, h[1]))
    if kind == "Qx":
        return reps_ideals.canonical_qx(lsys, lib.point(msys, h[1]))
    if kind == "Pxl":
        return reps_ideals.canonical_px_lambda(lsys, lib.point(msys, h[1]), lib.scalar(h[2]))
    if kind == "K":
        return reps_ideals.kernel_ideal(lsys, lib.closed_set(msys, h[1]))
    return reps_ideals.intersection_ideal(lsys, [lib_handle(lib, msys, p) for p in h[1]])


# ---------------------------------------------------------------------------
# Expected hulls and behaviour


def set_text(msys, S) -> str:
    """A model set as ``render_set`` prints it."""
    if isinstance(msys, M.Union):
        return "u[" + "; ".join(set_text(c, p) for c, p in zip(msys.components, S)) + "]"
    if msys is M.SHIFT:
        ints, has_inf, cofinite = S
        if cofinite:
            return "co{" + ",".join(str(i) for i in sorted(ints)) + "}"
        return "{" + ",".join((["inf"] if has_inf else []) + [str(i) for i in sorted(ints)]) + "}"
    return "{" + ",".join(str(i) for i in sorted(S)) + "}"


def empty(msys):
    if isinstance(msys, M.Union):
        return tuple(empty(c) for c in msys.components)
    return NO_SHIFT if msys is M.SHIFT else frozenset()


def set_union(msys, A, B):
    if isinstance(msys, M.Union):
        return tuple(set_union(c, p, q) for c, p, q in zip(msys.components, A, B))
    if msys is M.SHIFT:
        if A[2] or B[2]:
            return WHOLE_SHIFT  # the only cofinite sets used here are whole
        return (A[0] | B[0], A[1] or B[1], False)
    return A | B


def points_set(msys, pts):
    S = empty(msys)
    for y in pts:
        S = set_union(msys, S, _singleton(msys, y))
    return S


def _singleton(msys, y):
    if isinstance(msys, M.Union):
        i, z = y
        parts = list(empty(msys))
        parts[i] = _singleton(msys.components[i], z)
        return tuple(parts)
    if msys is M.SHIFT:
        return INF_ONLY if y == M.INF else (frozenset({y}), False, False)
    return frozenset({y})


def expected_hull(msys, h):
    kind = h[0]
    if kind == "Px":
        i = h[1][0]
        parts = list(empty(msys))
        parts[i] = WHOLE_SHIFT
        return tuple(parts)
    if kind == "Qx":
        return points_set(msys, M.orbit(msys, h[1]))
    if kind == "Pxl":
        return empty(msys)
    if kind == "K":
        return h[1]
    S = empty(msys)
    for p in h[1]:
        S = set_union(msys, S, expected_hull(msys, p))
    return S


def expected_behaviour(msys, h) -> str:
    kind = h[0]
    if kind in ("Px", "Qx", "K"):
        return "well"
    if kind == "Pxl":
        return "bad"
    parts = h[1]
    if all(expected_behaviour(msys, p) == "well" for p in parts):
        return "well"
    px, pxl = parts
    # the Pxl point lies in the closure of the Px orbit exactly when it is
    # the fixed point at infinity of the same shift component
    if pxl[1] == (px[1][0], M.INF):
        return "well"
    return "plain"


# ---------------------------------------------------------------------------
# Operations


def _element_op(label, msys, call, expected):
    want = functools.cache(expected)  # the reference is computed on first use
    return Op(label, call, parsing.render_element,
              lambda text: M.parse_element(msys, text) == want())


def _matrix_render(R):
    return tuple(tuple(parsing.render_scalar(v) for v in row) for row in R.entries)


def build(seed: int) -> list:
    rng = random.Random(seed)
    lib = Lib(exact=True)
    ops = []

    for name, msys in (("c3", C3), ("p11", P11), ("c8", C8), ("shift", SH), ("union", U)):
        for r in ALGEBRA_RADII:
            a, b = rand_elem(msys, r, rng), rand_elem(msys, r, rng)
            la, lb = lib.element(msys, a), lib.element(msys, b)
            ops.append(_element_op(
                f"alg_mul/{name}/r{r}", msys,
                lambda la=la, lb=lb: algebra.alg_mul(la, lb),
                lambda a=a, b=b, msys=msys: M.twisted_mul(msys, a, b)))
        for r in (2, 4):
            a = rand_elem(msys, r, rng)
            la = lib.element(msys, a)
            ops.append(_element_op(
                f"alg_adj/{name}/r{r}", msys,
                lambda la=la: algebra.alg_adj(la),
                lambda a=a, msys=msys: M.involution(msys, a)))
            want = M.algebra_norm(msys, a)
            ops.append(Op(f"alg_norm/{name}/r{r}", lambda la=la: algebra.alg_norm(la),
                          float, lambda v, want=want: abs(v - want) <= 1e-12 * max(1.0, want)))

    member_handles = [
        (P11, ("Qx", 0)), (P11, ("Qx", 1)), (P11, ("Qx", 3)), (P11, ("Qx", 6)),
        (P11, ("Pxl", 0, rand_lam(rng))), (P11, ("Pxl", 2, rand_lam(rng))),
        (P11, ("Pxl", 4, rand_lam(rng))), (P11, ("Pxl", 8, rand_lam(rng))),
        (P11, ("K", frozenset({1, 2, 3, 4, 5}))),
        (P11, ("meet", (("Qx", 0), ("Pxl", 6, rand_lam(rng))))),
        (C3, ("Pxl", 0, rand_lam(rng))),
        (C8, ("Pxl", 0, rand_lam(rng))), (C8, ("Pxl", 5, rand_lam(rng))),
        (SH, ("Qx", M.INF)), (SH, ("Pxl", M.INF, rand_lam(rng))), (SH, ("K", INF_ONLY)),
        (U, ("Px", (0, 0))), (U, ("Qx", (1, 0))), (U, ("Pxl", (1, 1), rand_lam(rng))),
        (U, ("Pxl", (0, M.INF), rand_lam(rng))), (U, ("K", (WHOLE_SHIFT, frozenset()))),
        (U, ("meet", (("Px", (0, 0)), ("Pxl", (1, 0), rand_lam(rng))))),
    ]
    for msys, h in member_handles:
        I = lib_handle(lib, msys, h)
        for want in (True, False):
            base = rand_elem(msys, MEMBER_RADIUS, rng)
            a = make_member(msys, h, base) if want else make_nonmember(msys, h, base, rng)
            if is_member(msys, h, a) != want:
                raise AssertionError(f"member generator broke on {h[0]}")
            la = lib.element(msys, a)
            ops.append(Op(f"ideal_member/{h[0]}/{want}",
                          lambda I=I, la=la: reps_ideals.ideal_member(I, la),
                          bool, lambda v, want=want: v is want))

    rep_points = [(P11, 0), (P11, 1), (P11, 3), (P11, 6), (C3, 0), (C8, 0),
                  (SH, M.INF), (U, (1, 0))]
    for msys, x in rep_points:
        lsys, lx = lib.system(msys), lib.point(msys, x)
        p = M.period(msys, x)
        mu = rand_lam(rng)
        h = ("Pxl", x, mu)
        for want in (True, False):
            base = rand_elem(msys, REP_RADIUS, rng)
            a = make_member(msys, h, base) if want else make_nonmember(msys, h, base, rng)
            la, lmu = lib.element(msys, a), lib.scalar(mu)

            def verify(rows, msys=msys, x=x, mu=mu, a=a, want=want):
                got = [[M.parse_scalar(v) for v in row] for row in rows]
                if got != M.rep_matrix(msys, x, mu, a):
                    return False
                # the matrix is zero exactly when the element is a member
                return all(not v for row in got for v in row) == want
            ops.append(Op(f"rep_periodic/p{p}/{want}",
                          lambda lsys=lsys, lx=lx, lmu=lmu, la=la:
                              reps_ideals.rep_periodic(lsys, lx, lmu, la),
                          _matrix_render, verify))

    for msys, x in ((SH, 0), (SH, 2), (U, (0, -1))):
        lsys, lx = lib.system(msys), lib.point(msys, x)
        a = rand_elem(msys, REP_RADIUS, rng)
        la = lib.element(msys, a)
        want = M.window_matrix(msys, x, WINDOW, a, M.GQ())
        ops.append(Op("rep_aperiodic_window/w4",
                      lambda lsys=lsys, lx=lx, la=la:
                          reps_ideals.rep_aperiodic_window(lsys, lx, WINDOW, la),
                      _matrix_render,
                      lambda rows, want=want: [[M.parse_scalar(v) for v in row] for row in rows] == want))

    canonical = [
        (U, ("Px", (0, 0))), (U, ("Qx", (1, 0))), (U, ("Pxl", (1, 0), rand_lam(rng))),
        (U, ("K", (WHOLE_SHIFT, frozenset()))),
        (U, ("meet", (("Px", (0, 0)), ("Pxl", (1, 0), rand_lam(rng))))),
        (U, ("meet", (("Px", (0, 0)), ("Pxl", (0, M.INF), rand_lam(rng))))),
        (P11, ("Qx", 3)), (P11, ("Pxl", 6, rand_lam(rng))), (P11, ("K", frozenset({1, 2}))),
        (P11, ("meet", (("Qx", 0), ("K", frozenset({1, 2}))))),
    ]
    for msys, h in canonical:
        I = lib_handle(lib, msys, h)
        ops.append(_behaviour_op(msys, h, I))
        want = set_text(msys, expected_hull(msys, h))
        ops.append(Op(f"hull/{h[0]}", lambda I=I: hullkernel.hull(I),
                      lambda res: parsing.render_set(res.subset),
                      lambda text, want=want: text == want))
    return ops


def _behaviour_op(msys, h, I):
    kind = expected_behaviour(msys, h)

    def render(rep):
        f = rep.escape_function
        a = rep.escape_element
        return (rep.kind, None if f is None else parsing.render_func(f),
                None if a is None else parsing.render_element(a))

    def verify(got):
        got_kind, f_text, a_text = got
        if got_kind != kind:
            return False
        if kind == "well":
            return f_text is None and a_text is None
        # witnesses: the escape element is a member whose zero coefficient is
        # the escape function, and that function alone is not in the
        # torus-parameter kernel
        f = M.parse_func(msys, f_text)
        a = M.parse_element(msys, a_text)
        pxl = h if kind == "bad" else h[1][1]
        return (is_member(msys, h, a) and a.get(0) == f
                and not is_member(msys, pxl, {0: f}))

    return Op(f"ideal_behaviour/{h[0]}", lambda: reps_ideals.ideal_behaviour(I), render, verify)
