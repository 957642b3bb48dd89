"""The ideal handles' contract.

Over the canonical handles of every test config, ``ideal_leq`` agrees with
the inclusion table of canonical handles, and a one-part meet answers every
question exactly as its part does.  Failures count as answers: the same
exception type must come out.  A generated ideal lies in a target exactly
when the target holds its generators: in exact mode that is the answer the
zero set and the hull give, and float mode gives the exact answer.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from crossedprod import scalars as sc
from crossedprod.algebra import alg_mul, demote_to_float
from crossedprod.cli import run_command
from crossedprod.dynsys import pt
from crossedprod.errors import CrossedProdError
from crossedprod.hullkernel import hull
from crossedprod.parsing import parse_config, render_set, render_torus
from crossedprod.reps_ideals import (
    IntersectionIdeal, PxLambdaIdeal, canonical_px_lambda, escape_element, generated_ideal,
    ideal_behaviour, ideal_inclusion, ideal_member, intersection_ideal, kernel_ideal,
    orbit_kernel,
)
from crossedprod.sampling import canonical_handles, random_element, random_func, random_member
from crossedprod.transform import ideal_leq, pth_roots, torus_contains, zeros_of_ideal

DATA = Path(__file__).parent / "data"
CONFIGS = sorted(p.name for p in DATA.glob("*.cfg"))


def answer(op, *args):
    try:
        return op(*args)
    except CrossedProdError as ex:
        return type(ex)


def load(name):
    """System, mode, tolerance and canonical handles of a config; the torus
    parameters 1, -1 and i are written in the config's numeric mode."""
    cfg = parse_config((DATA / name).read_text())
    exact = cfg.mode == "exact"
    lams = (sc.qc(1), sc.qc(-1), sc.qc(0, 1)) if exact else (1 + 0j, -1 + 0j, 1j)
    return cfg.system, exact, cfg.tolerance, canonical_handles(cfg.system, lams)


@pytest.mark.parametrize("name", CONFIGS)
def test_ideal_leq_agrees_with_the_inclusion_table(name):
    handles = load(name)[3]
    for I in handles:
        for J in handles:
            assert ideal_leq(I, J) == ideal_inclusion(I, J), (I, J)


@pytest.mark.parametrize("name", CONFIGS)
def test_one_part_meet_answers_as_its_part(name):
    system, exact, tol, handles = load(name)
    rng = random.Random(17)
    for I in handles:
        M = intersection_ideal(system, [I])
        samples = [random_element(system, rng, 2, exact) for _ in range(4)]
        samples += [random_member(I, rng, 2, exact) for _ in range(4)]
        for a in samples:
            assert ideal_member(M, a, tol) == ideal_member(I, a, tol), (I, a)
        assert hull(M, tol).subset == hull(I, tol).subset
        assert render_set(hull(M, tol).subset) == render_set(hull(I, tol).subset)
        assert render_torus(zeros_of_ideal(M, tol)) == render_torus(zeros_of_ideal(I, tol))
        kinds = [answer(lambda H=H: ideal_behaviour(H, tol).kind) for H in (M, I)]
        assert kinds[0] == kinds[1], (I, kinds)
        for J in handles:
            assert ideal_leq(M, J, tol) == ideal_leq(I, J, tol), (I, J)
            assert ideal_leq(J, M, tol) == ideal_leq(J, I, tol), (J, I)


# ---------------------------------------------------------------------------
# Generated ideals inside the handles with a membership oracle

LAMS = (sc.qc(1), sc.qc(-1), sc.qc(0, 1), sc.qc(Fraction(3, 5), Fraction(4, 5)))


def generators(system, rng, x, lam):
    """1 to 3 exact generators of radius at most 3, each one with odds 4 in
    5 a member of one home: Pxl(x, lam), as a random element times an
    escape element, or the orbit kernel of a random orbit."""
    p = system.period(x)
    home = rng.choice([None, *system.orbit_reps()])
    gens = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.2:
            gens.append(random_element(system, rng, rng.randint(0, 3), True))
        elif home is None:
            b = random_element(system, rng, rng.randint(0, 3 - p), True)
            gens.append(alg_mul(b, escape_element(random_func(system, rng, True), lam, p)))
        else:
            gens.append(random_member(orbit_kernel(system, home), rng, 3, True))
    return gens


def targets(system, rng, x, lam, exact):
    """Pxl at the planted parameter and at another, every orbit kernel (Qx
    and Px), the kernel of two orbit closures, and a meet of a Pxl and an
    orbit kernel, in the given mode."""
    mode = (lambda v: v) if exact else complex
    other = rng.choice([m for m in LAMS if m != lam])
    reps = system.orbit_reps()
    kernels = [orbit_kernel(system, y) for y in reps]
    A, B = (system.orbit_closure(rng.choice(reps)) for _ in range(2))
    out = [canonical_px_lambda(system, x, mode(lam)), canonical_px_lambda(system, x, mode(other))]
    out += kernels + [kernel_ideal(system, system.union(A, B))]
    out.append(intersection_ideal(system, [out[rng.randrange(2)], rng.choice(kernels)]))
    return out


def zero_set_answer(I, J, tol):
    """Containment as the zero set (Pxl targets) and the hull (set kernels)
    of the generated ideal decide it."""
    if isinstance(J, IntersectionIdeal):
        return all(zero_set_answer(I, P, tol) for P in J.parts)
    if isinstance(J, PxLambdaIdeal):
        Z = zeros_of_ideal(I, tol)
        return any(torus_contains(Z, J.x, mu) for mu in pth_roots(J.lam, I.system.period(J.x)))
    return I.system.subset(J.subset, hull(I, tol).subset)


@pytest.mark.parametrize("name", ["cycle3_exact.cfg", "swapfix.cfg", "shift.cfg",
                                  "union_shift_cycle3.cfg"])
def test_a_generated_ideal_lies_where_its_generators_do(name):
    """Exact mode answers as the zero set and the hull do; the same ideal
    with its generators in float answers from membership, and as in exact
    mode."""
    system, _, tol, _ = load(name)
    rng = random.Random(23)
    periodic = [x for x in system.orbit_reps() if system.period(x) is not None]
    seen = set()
    for _ in range(16):
        x, lam = rng.choice(periodic), rng.choice(LAMS)
        gens = generators(system, rng, x, lam)
        I, fI = generated_ideal(system, gens), generated_ideal(system, map(demote_to_float, gens))
        seed = rng.random()
        Js, fJs = (targets(system, random.Random(seed), x, lam, exact) for exact in (True, False))
        for J, fJ in zip(Js, fJs):
            want = zero_set_answer(I, J, tol)
            assert ideal_leq(I, J, tol) == want, (I, J)
            got = ideal_leq(fI, fJ, tol)
            assert got == all(ideal_member(fJ, g, tol) for g in fI.gens)
            assert got == want, (fI, fJ)
            seen.add(want)
    assert seen == {True, False}


def test_float_inclusion_finds_the_common_cube_roots(tmp_path, capsys):
    """Two generators with a long common factor 1 - d^3 each lie in
    Pxl(0, 1); in float mode the generated ideal does too."""
    cfg = tmp_path / "cycle3_float.cfg"
    cfg.write_text((DATA / "cycle3_exact.cfg").read_text().replace("mode exact", "mode float"))
    A = ("(1 - d^3)*(-1 + (1/2)*d^3 + (-4/5)*d^6 + (1/2)*d^9 + (-2/5)*d^15"
         " + (-5/2)*d^18 + (-2/5)*d^21 + (-5/2)*d^24)")
    B = "(1 - d^3)*(-5 + (3/5)*d^3 + 3*d^6 + 8*d^9 + d^12)"
    for argv in (["member", "--ideal", "Pxl(0, 1)", "--elem", A],
                 ["member", "--ideal", "Pxl(0, 1)", "--elem", B],
                 ["inclusion", "--i1", f"gen({A}, {B})", "--i2", "Pxl(0, 1)"]):
        assert run_command(["--config", str(cfg), *argv]) == 0
        assert capsys.readouterr().out == "true\n"


def test_a_set_kernel_lies_in_pxl_when_its_set_holds_the_point(rational_rotation):
    """Orbit data alone: the zero set of K(circle) on a rational rotation is
    no finite list of orbits, yet the kernel lies in every Pxl."""
    r = rational_rotation
    J = canonical_px_lambda(r, pt(0.0), 1 + 0j)
    whole = kernel_ideal(r, r.whole_space())
    assert ideal_leq(whole, J)
    assert ideal_leq(orbit_kernel(r, pt(1 / 3)), J)
    assert not ideal_leq(orbit_kernel(r, pt(0.5)), J)
    assert ideal_leq(intersection_ideal(r, [whole, orbit_kernel(r, pt(0.5))]), J)
