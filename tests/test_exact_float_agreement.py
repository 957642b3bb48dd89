"""Exact mode is the oracle for float mode.

Seeded exact elements, ideal members and generators with planted 1 - d^k
factors are demoted to float, and the two modes must agree: on membership
in every canonical handle, on inclusion between canonical handles, on the
hulls of generated ideals and on their zero-set entries, with root lists
equal within ROOT_MATCH_TOL.
"""

import random
from fractions import Fraction

import pytest

from crossedprod import scalars as sc
from crossedprod.algebra import alg_mul, alg_sub, delta_power, demote_to_float, unit
from crossedprod.dynsys import FiniteSystem, ShiftSystem, UnionSystem
from crossedprod.hullkernel import hull
from crossedprod.reps_ideals import generated_ideal, ideal_inclusion, ideal_member
from crossedprod.sampling import canonical_handles, random_element, random_member
from crossedprod.scalars import ROOT_MATCH_TOL
from crossedprod.transform import lamset_roots, zeros_of_ideal

SYSTEMS = {
    "cycle3": lambda: FiniteSystem(3, (1, 2, 0)),
    "perm23": lambda: FiniteSystem(5, (1, 0, 3, 4, 2)),
    "shift": ShiftSystem,
    "shift+cycle3": lambda: UnionSystem((ShiftSystem(), FiniteSystem(3, (1, 2, 0)))),
}
EXACT_LAMS = (sc.qc(1), sc.qc(-1), sc.qc(0, 1), sc.qc(Fraction(3, 5), Fraction(4, 5)))


def same_roots(r1, r2) -> bool:
    if r1 is None or r2 is None:
        return r1 is r2
    return len(r1) == len(r2) and all(abs(u - v) <= ROOT_MATCH_TOL for u, v in zip(r1, r2))


@pytest.mark.parametrize("name", SYSTEMS)
def test_float_mode_agrees_with_exact_mode(name):
    system = SYSTEMS[name]()
    rng = random.Random(len(name))
    # the same handles in both modes: canonical_handles keeps the given
    # torus parameters when asked for no conversion
    exact = canonical_handles(system, EXACT_LAMS)
    floats = canonical_handles(system, [complex(lam) for lam in EXACT_LAMS])

    samples = [random_element(system, rng, 2, exact=True) for _ in range(4)]
    samples += [random_member(I, rng, 2, exact=True) for I in exact]
    for I, If in zip(exact, floats):
        for a in samples:
            assert ideal_member(I, a) == ideal_member(If, demote_to_float(a)), (I, a)
        for J, Jf in zip(exact, floats):
            assert ideal_inclusion(I, J) == ideal_inclusion(If, Jf), (I, J)

    one = unit(system, True)
    nonempty = 0
    for k in (1, 2, 3, 6):
        planted = alg_sub(one, delta_power(system, k, True))
        for count in (1, 2):
            gens = [alg_mul(random_element(system, rng, 1, exact=True), planted)
                    for _ in range(count)]
            G = generated_ideal(system, gens)
            Gf = generated_ideal(system, [demote_to_float(g) for g in gens])
            assert hull(G).subset == hull(Gf).subset, gens
            Z, Zf = zeros_of_ideal(G).entries, zeros_of_ideal(Gf).entries
            assert [e.point for e in Z] == [e.point for e in Zf], gens
            for e, ef in zip(Z, Zf):
                assert same_roots(lamset_roots(e.lamset), lamset_roots(ef.lamset)), gens
            nonempty += any(lamset_roots(e.lamset) != [] for e in Z)
    # 1 - d^k vanishes at (x, mu) for mu^k = 1 when the period of x divides k
    assert nonempty >= 4
