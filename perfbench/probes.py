"""Fixed-size probes: one public function each, on inputs drawn from a fixed
probe seed, timed directly.  The metric name carries the unit.

A probe whose function is gone or no longer accepts its inputs reports 0
and says so on stderr, so the traced run outlives refactors.
"""

from __future__ import annotations

import random
import sys
from time import perf_counter

from crossedprod import (
    algebra, dynsys, funcspace, hullkernel, parsing, reps_ideals, synthesis,
    transform,
)

import exact_oracles as EX
import float_transform as FT
import model as M
from common import median
from lib import Lib

PROBE_SEED = 20120601
BATCH_S = 0.01
REPEATS = 5


def per_call(fn) -> float:
    """Median seconds per call over REPEATS batches of at least BATCH_S."""
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        took = perf_counter() - t0
        if took >= BATCH_S:
            break
        n = max(n * 2, int(n * BATCH_S / max(took, 1e-9)) + 1)
    samples = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        samples.append((perf_counter() - t0) / n)
    return median(samples)


def _probes():
    """(metric name, seconds-to-unit factor, zero-argument callable)."""
    rng = random.Random(PROBE_SEED)
    ex, fl = Lib(exact=True), Lib(exact=False)
    P11, C8, SH, U = EX.P11, EX.C8, EX.SH, EX.U
    GR = dynsys.RotationSystem(dynsys.GOLDEN_CONJUGATE)
    us, ms = 1e6, 1e3
    out = []

    xs = [ex.scalar(EX.rand_gq(rng)) for _ in range(1000)]
    ys = [ex.scalar(EX.rand_gq(rng)) for _ in range(1000)]
    zero = ex.scalar(M.GQ())
    fxs, fys = [complex(x) for x in xs], [complex(y) for y in ys]

    def muladd(a, b, acc):
        for x, y in zip(a, b):
            acc = acc + x * y
        return acc
    out.append(("scalars.muladd_exact_us", us / 1000, lambda: muladd(xs, ys, zero)))
    out.append(("scalars.muladd_float_us", us / 1000, lambda: muladd(fxs, fys, 0j)))

    p11 = ex.system(P11)
    vals = tuple(ex.scalar(EX.rand_gq(rng)) for _ in range(11))
    out.append(("funcspace.func_new_us.finite11_exact", us,
                lambda: funcspace.finite_func(p11, vals)))

    def funcs(lib, msys, scalar):
        return (lib.func(msys, EX.rand_func(msys, rng, scalar)),
                lib.func(msys, EX.rand_func(msys, rng, scalar)))
    fr = lambda r: complex(EX.rand_gq(r))  # noqa: E731
    rot = [funcspace.trig_poly(GR, {k: FT.rand_c(rng) for k in range(-3, 5)}) for _ in range(2)]
    kernels = {
        "finite11_exact": funcs(ex, P11, EX.rand_gq),
        "shift_exact": funcs(ex, SH, EX.rand_gq),
        "finite11_float": funcs(fl, P11, fr),
        "rotation": tuple(rot),
    }
    for key, (f, g) in kernels.items():
        out.append((f"funcspace.f_mul_us.{key}", us, lambda f=f, g=g: funcspace.f_mul(f, g)))
    for key in ("finite11_exact", "shift_exact", "rotation"):
        f = kernels[key][0]
        out.append((f"funcspace.f_compose_sigma_us.{key}", us,
                    lambda f=f: funcspace.f_compose_sigma(f, 3)))

    for r in (2, 4, 8):
        a = ex.element(P11, EX.rand_elem(P11, r, rng))
        b = ex.element(P11, EX.rand_elem(P11, r, rng))
        out.append((f"algebra.alg_mul_ms.r{r}", ms, lambda a=a, b=b: algebra.alg_mul(a, b)))
        if r == 4:
            out.append(("algebra.alg_adj_ms.r4", ms, lambda a=a: algebra.alg_adj(a)))
    ra, rb = (algebra.element(GR, {n: funcspace.trig_poly(GR, {k: FT.rand_c(rng) for k in range(3)})
                                   for n in range(-4, 5)}) for _ in range(2))
    out.append(("algebra.alg_mul_ms.rotation_r4", ms, lambda: algebra.alg_mul(ra, rb)))

    for p, msys, x in ((1, P11, 0), (2, P11, 1), (3, P11, 3), (5, P11, 6), (8, C8, 0)):
        a = ex.element(msys, EX.rand_elem(msys, EX.REP_RADIUS, rng))
        lsys, lx, lam = ex.system(msys), ex.point(msys, x), ex.scalar(EX.rand_lam(rng))
        out.append((f"reps_ideals.rep_periodic_ms.p{p}", ms,
                    lambda lsys=lsys, lx=lx, lam=lam, a=a: reps_ideals.rep_periodic(lsys, lx, lam, a)))
    a = ex.element(SH, EX.rand_elem(SH, EX.REP_RADIUS, rng))
    sh, x0 = ex.system(SH), ex.point(SH, 0)
    out.append(("reps_ideals.rep_aperiodic_window_ms.w8", ms,
                lambda a=a: reps_ideals.rep_aperiodic_window(sh, x0, 8, a)))

    lam = EX.rand_lam(rng)
    handles = {
        "px": (U, ("Px", (0, 0))),
        "qx": (P11, ("Qx", 3)),
        "pxl": (P11, ("Pxl", 6, lam)),
        "kernel": (P11, ("K", frozenset({1, 2, 3, 4, 5}))),
        "meet": (P11, ("meet", (("Qx", 0), ("Pxl", 6, lam)))),
    }
    for key, (msys, h) in handles.items():
        I = EX.lib_handle(ex, msys, h)
        a = ex.element(msys, EX.make_member(msys, h, EX.rand_elem(msys, EX.MEMBER_RADIUS, rng)))
        out.append((f"reps_ideals.ideal_member_us.{key}", us,
                    lambda I=I, a=a: reps_ideals.ideal_member(I, a)))

    for deg in (4, 16):
        coeffs, _ = FT.planted_trig(rng, deg, 0)
        out.append((f"funcspace.unit_circle_roots_us.deg{deg}", us,
                    lambda c=coeffs: funcspace.unit_circle_roots(c, 1e-9)))
        poly = FT.poly_from_roots([FT.unit(t) for t in FT.spread_angles(rng, deg)])
        out.append((f"transform.poly_gcd_us.deg{deg}", us,
                    lambda p=poly: transform.poly_gcd([p, p, p])))

    pl = FT.Planted(P11, {0: FT.spread_angles(rng, 2), 1: FT.spread_angles(rng, 1), 3: None,
                          6: FT.spread_angles(rng, 3)}, rng)
    gI = reps_ideals.generated_ideal(fl.system(P11), [fl.element(P11, pl.gen)])
    out.append(("transform.zeros_of_ideal_ms", ms, lambda: transform.zeros_of_ideal(gI)))
    out.append(("transform.zi_closure_ms", ms, lambda: transform.zi_closure(gI)))
    out.append(("hullkernel.hull_us.generated", us, lambda: hullkernel.hull(gI)))

    e = algebra.element(GR, {n: funcspace.trig_poly(GR, {k: FT.rand_c(rng) for k in (-1, 1)})
                             for n in range(-2, 3)})
    for key, eps in (("eps005", 0.05), ("eps0001", 0.001)):
        out.append((f"synthesis.drive_to_E_ms.{key}", ms,
                    lambda eps=eps: synthesis.drive_to_E(e, eps)))

    c3 = ex.system(EX.C3)
    text = "f{0:1,1:2/3,2:-1i}*d^2 + (1 - d)*(1 + d^-1)*f{0:1/2,1:1+1i,2:0} + adj(d)*f{1:3}"
    out.append(("parsing.parse_elem_us", us, lambda: parsing.parse_elem(text, c3, True)))
    big = ex.element(P11, EX.rand_elem(P11, 4, rng))
    out.append(("parsing.render_element_us", us, lambda: parsing.render_element(big)))
    return out


def run_probes() -> dict:
    out = {}
    try:
        probes = _probes()
    except Exception as ex:  # inputs could not be built: report every probe as 0
        print(f"probes: set-up failed: {ex!r}", file=sys.stderr)
        return {name: 0.0 for name in PROBE_NAMES}
    for name, factor, fn in probes:
        try:
            out[name] = per_call(fn) * factor
        except Exception as ex:
            print(f"probe {name} failed: {ex!r}", file=sys.stderr)
            out[name] = 0.0
    return out


def _unit(name: str) -> str:
    return name.split(".")[1].rpartition("_")[2]


PROBE_NAMES = (
    "scalars.muladd_exact_us", "scalars.muladd_float_us",
    "funcspace.func_new_us.finite11_exact",
    "funcspace.f_mul_us.finite11_exact", "funcspace.f_mul_us.shift_exact",
    "funcspace.f_mul_us.finite11_float", "funcspace.f_mul_us.rotation",
    "funcspace.f_compose_sigma_us.finite11_exact", "funcspace.f_compose_sigma_us.shift_exact",
    "funcspace.f_compose_sigma_us.rotation",
    "algebra.alg_mul_ms.r2", "algebra.alg_mul_ms.r4", "algebra.alg_adj_ms.r4",
    "algebra.alg_mul_ms.r8", "algebra.alg_mul_ms.rotation_r4",
    "reps_ideals.rep_periodic_ms.p1", "reps_ideals.rep_periodic_ms.p2",
    "reps_ideals.rep_periodic_ms.p3", "reps_ideals.rep_periodic_ms.p5",
    "reps_ideals.rep_periodic_ms.p8", "reps_ideals.rep_aperiodic_window_ms.w8",
    "reps_ideals.ideal_member_us.px", "reps_ideals.ideal_member_us.qx",
    "reps_ideals.ideal_member_us.pxl", "reps_ideals.ideal_member_us.kernel",
    "reps_ideals.ideal_member_us.meet",
    "funcspace.unit_circle_roots_us.deg4", "transform.poly_gcd_us.deg4",
    "funcspace.unit_circle_roots_us.deg16", "transform.poly_gcd_us.deg16",
    "transform.zeros_of_ideal_ms", "transform.zi_closure_ms", "hullkernel.hull_us.generated",
    "synthesis.drive_to_E_ms.eps005", "synthesis.drive_to_E_ms.eps0001",
    "parsing.parse_elem_us", "parsing.render_element_us",
)

PROBE_UNITS = {name: _unit(name) for name in PROBE_NAMES}
