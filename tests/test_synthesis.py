import contextlib
import io
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import crossedprod.algebra as algebra
from crossedprod.algebra import (
    Element, alg_add, alg_mul, alg_adj, alg_scale, delta_power, elem_close,
    from_func, unit, zero_element,
)
from crossedprod.cli import run_command
from crossedprod.dynsys import RotationSystem
from crossedprod.errors import UnsupportedQueryError
from crossedprod.funcspace import f_algnorm, f_zero_set, trig_poly, vanishes_on
from crossedprod.sampling import random_element
from crossedprod.synthesis import (
    char_average, dichotomy_report, drive_to_E,
)


def dirichlet_mag(order: int, x: float) -> float:
    """Closed-form magnitude of the averaged phase at frequency step x."""
    s = math.sin(math.pi * x)
    if abs(s) < 1e-14:
        return 1.0
    return abs(math.sin(math.pi * order * x) / (order * s))


def test_zero_coefficient_unchanged(golden_rotation, rng):
    for order in (2, 5, 16):
        a = random_element(golden_rotation, rng, 3)
        av = char_average(a, order)
        assert f_algnorm(av.coeff(0)) == pytest.approx(f_algnorm(a.coeff(0)), abs=1e-12)
        # exactly equal coefficient
        from crossedprod.funcspace import f_sub, f_is_zero
        assert f_is_zero(f_sub(av.coeff(0), a.coeff(0)), 1e-12)


def test_scaling_matches_dirichlet_closed_form(golden_rotation):
    theta = golden_rotation.theta_value()
    from crossedprod.algebra import delta_power
    d = delta_power(golden_rotation, 1)
    av = char_average(d, 5)
    got = abs(complex(av.coeff(1).data[0]))
    assert got == pytest.approx(dirichlet_mag(5, theta), abs=1e-12)
    # frozen value for the canonical angle
    assert got == pytest.approx(0.05997726134454376, abs=1e-12)


def test_norms_never_grow(golden_rotation, rng):
    for order in (2, 8, 64):
        a = random_element(golden_rotation, rng, 3)
        av = char_average(a, order)
        for n in set(a.coeffs) | set(av.coeffs):
            assert f_algnorm(av.coeff(n)) <= f_algnorm(a.coeff(n)) + 1e-12


def test_zero_sets_preserved(golden_rotation, rng):
    a = random_element(golden_rotation, rng, 2)
    av = char_average(a, 7)
    for n, f in a.coeffs.items():
        zf = f_zero_set(f)
        if av.coeff(n).data:
            assert vanishes_on(av.coeff(n), zf, 1e-7)


def test_linear_and_unital(golden_rotation, rng):
    from crossedprod.algebra import alg_add
    a = random_element(golden_rotation, rng, 2)
    b = random_element(golden_rotation, rng, 2)
    lhs = char_average(alg_add(a, b), 6)
    rhs = alg_add(char_average(a, 6), char_average(b, 6))
    assert elem_close(lhs, rhs, 1e-9)
    assert elem_close(char_average(unit(golden_rotation), 6),
                      unit(golden_rotation), 1e-12)


def test_fixes_functions_and_positive_cone(golden_rotation, rng):
    f = trig_poly(golden_rotation, {0: 1 + 0j, 2: 0.5 + 0j})
    a = from_func(f)
    assert elem_close(char_average(a, 9), a, 1e-12)
    b = random_element(golden_rotation, rng, 2)
    sq = alg_mul(alg_adj(b), b)
    av = char_average(sq, 4)
    # the averaged square keeps a nonnegative zero coefficient on a grid
    from crossedprod.dynsys import Point
    for j in range(32):
        v = complex(
            __import__("crossedprod.funcspace", fromlist=["f_eval"]).f_eval(
                av.coeff(0), Point(Fraction(j, 32))))
        assert v.real > -1e-9 and abs(v.imag) < 1e-9


def test_drive_to_E_immediate_for_functions(golden_rotation):
    a = from_func(trig_poly(golden_rotation, {1: 2 + 0j}))
    rep = drive_to_E(a, 0.05, 10)
    assert rep.reached
    assert rep.rounds[0] == (0, 0.0)


def test_drive_to_E_residual_monotone_and_certified(golden_rotation, rng):
    theta = golden_rotation.theta_value()
    for _ in range(5):
        a = random_element(golden_rotation, rng, 3)
        rep = drive_to_E(a, 1e-3, 12)
        residuals = [r for _, r in rep.rounds]
        assert all(x >= y - 1e-12 for x, y in zip(residuals, residuals[1:]))
        # certify against the closed-form damping product
        expected = 0.0
        for n, f in a.coeffs.items():
            if n == 0:
                continue
            prod = 1.0
            order = 2
            for _ in range(len(rep.rounds) - 1):
                prod *= dirichlet_mag(order, n * theta)
                order *= 2
            expected += prod * f_algnorm(f)
        assert rep.final_residual == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_drive_to_E_unit_coefficients_golden(golden_rotation):
    a = Element(golden_rotation, {
        0: trig_poly(golden_rotation, {0: 1 + 0j}),
        1: trig_poly(golden_rotation, {0: 1 + 0j}),
        -1: trig_poly(golden_rotation, {1: 1 + 0j}),
    })
    rep = drive_to_E(a, 0.05, 12)
    assert rep.reached
    assert max(order for order, _ in rep.rounds) <= 4096
    # oracle: some order in the schedule damps frequency 1 below the target
    theta = golden_rotation.theta_value()
    assert min(dirichlet_mag(1 << k, theta) for k in range(1, 13)) < 0.05


def test_rational_angle_stalls_at_resonance():
    rot = RotationSystem(Fraction(1, 3), irrational=False)
    a = Element(rot, {
        3: trig_poly(rot, {0: 1 + 0j}),
        1: trig_poly(rot, {0: 1 + 0j}),
    })
    rep = drive_to_E(a, 0.05, 10)
    assert not rep.reached
    # frequency 3 never decays: its step is an integer
    assert rep.damping[3] == pytest.approx(1.0, abs=1e-12)
    assert rep.final_residual >= 1.0 - 1e-9


def test_char_average_needs_rotation(cycle3):
    with pytest.raises(UnsupportedQueryError):
        char_average(unit(cycle3), 4)


def test_dichotomy_reports(cycle3, shift, golden_rotation):
    r = dichotomy_report(cycle3)
    assert not r.free
    I_kind = r.witness_point
    assert r.escape_elem is not None
    r2 = dichotomy_report(shift)
    assert not r2.free and repr(r2.witness_point.coord) == "inf"
    r3 = dichotomy_report(golden_rotation)
    assert r3.free and r3.averaging is not None and r3.averaging.reached


DATA = Path(__file__).parent / "data"


def literal_averages(a, top):
    """(N, (1/N) sum_{m<N} z^m a z^{-m}) for N = 1..top: the definition,
    summed term by term with two twisted products a term, as the oracle for
    the closed form."""
    system = a.system
    acc = zero_element(system)
    for m in range(top):
        zm, zm_conj = from_func(system.character(m)), from_func(system.character(-m))
        acc = alg_add(acc, alg_mul(alg_mul(zm, a), zm_conj))
        yield m + 1, alg_scale(1.0 / (m + 1), acc)


def max_gap(a, b) -> float:
    """Largest coefficient value difference between two rotation elements."""
    gaps = [abs(a.coeff(n).data.get(k, 0j) - b.coeff(n).data.get(k, 0j))
            for n in set(a.coeffs) | set(b.coeffs)
            for k in set(a.coeff(n).data) | set(b.coeff(n).data)]
    return max(gaps, default=0.0)


@pytest.mark.parametrize("theta", [None, Fraction(1, 3), Fraction(1, 4)],
                         ids=["golden", "third", "quarter"])
def test_closed_form_matches_the_literal_sum(theta, golden_rotation):
    system = golden_rotation if theta is None else RotationSystem(theta, irrational=False)
    rng = random.Random(2025)
    elements = [random_element(system, rng, 4, density=0.8) for _ in range(2)]
    # resonant indices: multiples of the period on the rational rotations
    elements.append(Element(system, {n: system.random_func(rng, None) for n in (-8, -4, -3, 3, 4, 8)}))
    for a in elements:
        for order, literal in literal_averages(a, 64):
            gap = max_gap(char_average(a, order), literal)
            assert gap <= 1e-12, (order, gap)


def test_resonant_coefficients_are_kept_exactly(rational_rotation):
    f = rational_rotation.random_func(random.Random(7), None)
    a = Element(rational_rotation, {3: f, -6: f, 0: f})
    for order in (1, 2, 5, 64, 2 ** 2000):
        assert char_average(a, order).coeffs == a.coeffs


def test_huge_orders_average_nonresonant_coefficients_away(golden_rotation):
    a = delta_power(golden_rotation, 1)
    assert abs(char_average(a, 2 ** 1000).coeff(1).data[0]) < 1e-290
    # an int order beyond the float range still divides, down to zero
    third = RotationSystem(Fraction(1, 3), irrational=False)
    assert char_average(delta_power(third, 1), 2 ** 1100 + 1).coeffs == {}


def test_char_average_forms_no_twisted_product(golden_rotation, rng, monkeypatch):
    calls = []

    def counted(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    monkeypatch.setattr(algebra, "alg_mul", counted("alg_mul", algebra.alg_mul))
    monkeypatch.setattr(RotationSystem, "mul", counted("mul", RotationSystem.mul))
    a = random_element(golden_rotation, rng, 3)
    list(literal_averages(a, 2))  # the guard sees the products of the definition
    assert calls
    calls.clear()
    for order in (1, 2, 64, 2 ** 40):
        char_average(a, order)
    drive_to_E(a, 1e-300, 40)
    assert calls == []


def avg_on(cfg, *argv):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = run_command(["--config", str(cfg), "avg", *argv])
    return code, out.getvalue(), time.perf_counter() - start


def test_a_thousand_rounds_end_within_a_second(tmp_path):
    third = tmp_path / "third.cfg"
    third.write_text("system rotation { theta 1/3 irrational false }\nmode float\n")
    for cfg, lines in ((DATA / "rotation_golden.cfg", None), (third, 1000 + 1 + 4)):
        code, out, took = avg_on(cfg, "--elem", "1 + d + d^-1 + d^3", "--epsilon", "1e-300",
                                 "--max-rounds", "1000")
        assert code == 0 and took < 1.0, (cfg, took)
        if lines is not None:  # index 3 is resonant: every round runs, none decays it
            assert len(out.splitlines()) == lines
            assert out.endswith("not reached\n  witness: damping[-1]=0\n"
                                "  witness: damping[1]=0\n  witness: damping[3]=1\n")


def test_rounds_above_the_bound_are_refused_before_any_work(capsys):
    from crossedprod.parsing import MAX_ROUNDS
    cfg = DATA / "rotation_golden.cfg"
    # the element would be a parse error (exit 3): the bound is checked first
    assert run_command(["--config", str(cfg), "avg", "--elem", "((", "--max-rounds",
                        str(MAX_ROUNDS + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"bound of {MAX_ROUNDS}" in captured.err
    assert run_command(["--config", str(cfg), "avg", "--elem", "d", "--max-rounds",
                        str(MAX_ROUNDS)]) == 0
