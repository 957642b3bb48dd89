"""Character-conjugation averaging on the free rotation system.

Averaging an element over conjugations by the circle characters, which the
system supplies (the rotation model only), damps every nonzero-index
coefficient by a Dirichlet mean while fixing the zero-index coefficient: a
quantified, purely computational witness that the zero-coefficient
projection is reachable inside the closed bimodule the element generates
when the system is free.
"""

from __future__ import annotations

from cmath import exp
from math import pi, sin

from .algebra import Element, _element, from_func
from .errors import UnsupportedQueryError
from .records import record
from .reps_ideals import (
    canonical_px_lambda, ideal_behaviour, ideal_member,
)


def char_average(a: Element, order: int) -> Element:
    """Average of the conjugates of a by the characters z^m, m < order.

    Each coefficient a_n is scaled by the Dirichlet mean of w = e^{2 pi i n theta}:
    1 at resonance, else e^{pi i (y - x)} sin(pi y) / (order sin(pi x)) for the
    reduced turns x = n theta and y = order n theta, exact for surd and rational
    angles; so supports and zero sets are kept and no coefficient norm grows.
    """
    system = a.system
    system.character(0)  # only the rotation model has characters
    if order < 1:
        raise ValueError("averaging order must be positive")
    out = {}
    for n, f in a.coeffs.items():
        x, y = system.theta_times_mod1(n), system.theta_times_mod1(n * order)
        mean = 1 if x == 0 else exp(1j * pi * (y - x)) * sin(pi * y) / sin(pi * x) * (1 / order)
        out[n] = system.scale(mean, f)
    return _element(system, out)


@record(eq=False)
class AveragingReport:
    rounds: tuple  # (order, residual) pairs, round 0 is the input itself
    damping: dict  # coefficient index -> final norm ratio against the input
    reached: bool
    final_residual: float


def drive_to_E(a: Element, epsilon: float, max_rounds: int = 16) -> AveragingReport:
    """Compose character averages with doubling orders until the distance
    to the zero-coefficient projection drops below epsilon.

    The residual never increases; when it stalls (rational angle with a
    resonant frequency) the report simply says the target was not reached.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    def residual(b):  # the norm of b off its zero coefficient
        return float(sum(a.system.algnorm(f) for n, f in b.coeffs.items() if n))

    current = a
    rounds = [(0, residual(current))]
    order = 2
    for _ in range(max_rounds):
        if rounds[-1][1] <= epsilon:
            break
        current = char_average(current, order)
        rounds.append((order, residual(current)))
        order *= 2
    # a coefficient held is nonzero, so its norm is positive
    damping = {n: a.system.algnorm(current.coeff(n)) / a.system.algnorm(f)
               for n, f in a.coeffs.items() if n}
    final = rounds[-1][1]
    return AveragingReport(tuple(rounds), damping, final <= epsilon, final)


@record(eq=False)
class DichotomyReport:
    free: bool
    witness_point: object | None = None
    witness_lam: object | None = None
    escape_function: object | None = None
    escape_elem: object | None = None
    averaging: AveragingReport | None = None
    note: str = ""


def dichotomy_report(system, epsilon: float = 0.1, max_rounds: int = 14) -> DichotomyReport:
    """Freeness dichotomy with explicit evidence.

    Non-free systems get a periodic point and a torus-parameter kernel the
    zero-coefficient projection escapes from; the free rotation gets an
    averaging run as positive evidence.
    """
    if not system.is_free():
        x = system.some_periodic_point()
        I = canonical_px_lambda(system, x, 1 + 0j)
        bad = ideal_behaviour(I)  # a badly behaved kernel answers with its escape witness
        f, a = bad.escape_function, bad.escape_element
        assert ideal_member(I, a)
        assert not ideal_member(I, from_func(f))
        return DichotomyReport(
            False, witness_point=x, witness_lam=I.lam,
            escape_function=f, escape_elem=a,
            note="a torus-parameter kernel admits an escaping zero coefficient",
        )
    try:  # only the rotation model has characters; another free system is a union of them
        z = system.character
        sample = Element(system, {0: z(0), 1: system.scale(0.5, system.add(z(0), z(1))),
                                  -1: z(-1)})
    except UnsupportedQueryError:
        return DichotomyReport(True, note="free; averaging evidence is per rotation component")
    rep = drive_to_E(sample, epsilon, max_rounds)
    return DichotomyReport(True, averaging=rep,
                           note="averaging drives the sample toward its zero coefficient")
