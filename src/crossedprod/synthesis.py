"""Character-conjugation averaging on the free rotation system.

Averaging an element over conjugations by the circle characters, which the
system supplies (the rotation model only), damps every nonzero-index
coefficient by a Dirichlet mean while fixing the zero-index coefficient: a
quantified, purely computational witness that the zero-coefficient
projection is reachable inside the closed bimodule the element generates
when the system is free.
"""

from __future__ import annotations

from .algebra import (
    Element, alg_add, alg_mul, alg_norm, alg_scale, alg_sub, expectation,
    from_func, zero_element,
)
from .errors import UnsupportedQueryError
from .records import record
from .reps_ideals import (
    canonical_px_lambda, ideal_behaviour, ideal_member,
)


def char_average(a: Element, order: int) -> Element:
    """Average of the conjugates of a by the characters z^m, m < order.

    Realised literally as (1/order) sum_m z^m a z^{-m}; the net effect is
    to scale the coefficient of index n by the Dirichlet mean of the
    rotation angle times n, so supports and coefficient zero sets are
    preserved and no coefficient norm grows.
    """
    system = a.system
    system.character(0)  # only the rotation model has characters
    if order < 1:
        raise ValueError("averaging order must be positive")
    acc = zero_element(system)
    for m in range(order):
        zm = from_func(system.character(m))
        zm_conj = from_func(system.character(-m))
        acc = alg_add(acc, alg_mul(alg_mul(zm, a), zm_conj))
    return alg_scale(1.0 / order, acc)


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
    target = from_func(expectation(a))
    base_norms = {n: a.system.algnorm(f) for n, f in a.coeffs.items()}
    current = a
    rounds = [(0, alg_norm(alg_sub(current, target)))]
    order = 2
    for _ in range(max_rounds):
        if rounds[-1][1] <= epsilon:
            break
        current = char_average(current, order)
        rounds.append((order, alg_norm(alg_sub(current, target))))
        order *= 2
    damping = {}
    for n, base in base_norms.items():
        if n == 0 or base == 0:
            continue
        damping[n] = a.system.algnorm(current.coeff(n)) / base
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
