"""The ideal handles' contract.

Over the canonical handles of every test config, ``ideal_leq`` agrees with
the inclusion table of canonical handles, and a one-part meet answers every
question exactly as its part does.  Failures count as answers: the same
exception type must come out.
"""

import random
from pathlib import Path

import pytest

from crossedprod import scalars as sc
from crossedprod.errors import CrossedProdError
from crossedprod.hullkernel import hull
from crossedprod.parsing import parse_config, render_set, render_torus
from crossedprod.reps_ideals import (
    ideal_behaviour, ideal_inclusion, ideal_member, intersection_ideal,
)
from crossedprod.sampling import canonical_handles, random_element, random_member
from crossedprod.transform import ideal_leq, zeros_of_ideal

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
