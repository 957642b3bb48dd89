import contextlib
import io
from fractions import Fraction
from pathlib import Path

import pytest

from crossedprod import scalars as sc
from crossedprod.algebra import alg_mul, elem_close
from crossedprod.dynsys import (
    INF, ShiftSystem, Surd, UnionSystem, pt,
)
from crossedprod.errors import ParseError, SystemMismatchError
from crossedprod.funcspace import f_compose_sigma
from crossedprod.parsing import (
    MAX_PAIRS, MAX_VALUES, parse_config, parse_elem, parse_ideal, parse_point, parse_scalar_text,
    parse_set, parse_torus, render_config, render_element, render_ideal,
    render_point, render_set, render_torus,
)
from crossedprod.sampling import random_element

DATA = Path(__file__).parent / "data"


def test_config_round_trip(cycle3):
    text = """
    system union {
      component shift { }
      component finite { points 3 sigma 1 2 0 }
    }
    mode float
    tolerance 1e-8
    """
    cfg = parse_config(text)
    assert isinstance(cfg.system, UnionSystem)
    again = parse_config(render_config(cfg))
    assert again.system == cfg.system
    assert again.mode == cfg.mode
    assert again.tolerance == cfg.tolerance


def test_config_rotation_surd():
    cfg = parse_config("system rotation { theta surd -1 1 5 2 irrational true }")
    assert isinstance(cfg.system.theta, Surd)
    assert 0.61 < cfg.system.theta_value() < 0.62
    cfg2 = parse_config("system rotation { theta 1/3 irrational false }")
    assert cfg2.system.theta == Fraction(1, 3)


def test_config_diagnostics():
    with pytest.raises(ParseError) as ei:
        parse_config("system finite { points 3 }")
    assert "sigma" in str(ei.value)
    with pytest.raises(ParseError):
        parse_config("mode exact")  # no system
    with pytest.raises(ParseError):
        parse_config("system rotation { theta 0.25 } mode exact")
    err = None
    try:
        parse_config("system finite { points 3 sigma 1 2 0 } mode maybe")
    except ParseError as ex:
        err = ex
    assert err is not None and err.line >= 1 and err.expected


def test_elem_conjugation_by_generator(cycle3):
    a = parse_elem("d * f{0:1,1:0,2:0} * d^-1", cycle3, exact=True)
    f = parse_elem("f{0:1,1:0,2:0}", cycle3, exact=True).coeff(0)
    assert a.support() == [0]
    assert a.coeff(0) == f_compose_sigma(f, -1)


def test_elem_adjoint_of_generator(cycle3):
    a = parse_elem("adj(d)", cycle3, exact=True)
    assert a.support() == [-1]


def test_elem_square_expansion(golden_rotation):
    a = parse_elem("(tp{1:1} + tp{-1:1})^2", golden_rotation)
    b = parse_elem("tp{1:1} + tp{-1:1}", golden_rotation)
    assert elem_close(a, alg_mul(b, b), 1e-12)
    assert sorted(a.coeff(0).data) == [-2, 0, 2]


@pytest.mark.parametrize("base", ["1 + d", "f{0:1,1:2}*d - 1/2"])
def test_a_power_equals_the_repeated_product_exactly(cycle3, base):
    a = parse_elem(base, cycle3, exact=True)
    want = parse_elem("1", cycle3, exact=True)
    for k in range(10):
        assert parse_elem(f"({base})^{k}", cycle3, exact=True) == want
        want = alg_mul(want, a)


def test_a_large_power_takes_few_products():
    import time
    from crossedprod.cli import run_command
    argv = ["--config", str(DATA / "cycle3_exact.cfg"), "eval", "--elem", "d^1000000"]
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = run_command(argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, buf.getvalue()) == (0, "f{0:1,1:1,2:1}*d^1000000\n")


def test_elem_complex_scalars(cycle3):
    a = parse_elem("1/2 - 1/3i", cycle3, exact=True)
    v = a.coeff(0).data[0]
    assert v == sc.QComplex(Fraction(1, 2), Fraction(-1, 3))
    b = parse_elem("2+3i", cycle3, exact=True)
    assert b.coeff(0).data[0] == sc.QComplex(Fraction(2), Fraction(3))


def test_elem_mode_consistency(cycle3):
    with pytest.raises(ParseError):
        parse_elem("0.5", cycle3, exact=True)
    # float mode accepts everything
    a = parse_elem("0.5 + 1/4", cycle3, exact=False)
    assert abs(complex(a.coeff(0).data[0]) - 0.75) < 1e-12


def test_elem_diagnostics_carry_position(cycle3):
    with pytest.raises(ParseError) as ei:
        parse_elem("d * ", cycle3)
    assert ei.value.expected
    with pytest.raises(ParseError) as ei2:
        parse_elem("f{0:1", cycle3)
    assert ei2.value.col >= 1
    with pytest.raises(ParseError):
        parse_elem("sh{inf:1}", cycle3)  # wrong model literal
    parse_elem("d ^ -2", cycle3)  # delta powers invert fine
    with pytest.raises(ParseError):
        parse_elem("(1 + d)^-1", cycle3)


def test_elem_render_round_trip(cycle3, shift, golden_rotation,
                                shift_union_cycle3, rng):
    for sys in (cycle3, shift, golden_rotation, shift_union_cycle3):
        for _ in range(10):
            a = random_element(sys, rng, 3)
            text = render_element(a)
            again = parse_elem(text, sys)
            assert elem_close(a, again, 1e-9)


def test_exact_render_round_trip(cycle3, rng):
    for _ in range(10):
        a = random_element(cycle3, rng, 3, exact=True)
        again = parse_elem(render_element(a), cycle3, exact=True)
        assert again.coeffs == a.coeffs


def test_point_literals(shift_union_cycle3, golden_rotation):
    U = shift_union_cycle3
    assert parse_point("c0:inf", U) == pt(INF, 0)
    assert parse_point("c1:2", U) == pt(2, 1)
    x = parse_point("1/4", golden_rotation)
    assert x.coord == Fraction(1, 4)
    assert render_point(x) == "1/4"
    assert parse_point("inf", ShiftSystem()) == pt(INF)
    # a path that names no leaf is rejected, not an IndexError
    for text, system in (("c2:0", U), ("c0:c0:0", U), ("0", U), ("c0:1", golden_rotation)):
        with pytest.raises(SystemMismatchError):
            parse_point(text, system)


def test_set_literals(cycle3, shift, golden_rotation, shift_union_cycle3):
    assert render_set(parse_set("{0,2}", cycle3)) == "{0,2}"
    assert render_set(parse_set("co{1}", shift)) == "co{1}"
    assert render_set(parse_set("{inf,3}", shift)) == "{inf,3}"
    assert render_set(parse_set("circle", golden_rotation)) == "circle"
    s = parse_set("u[{inf}; {0,1}]", shift_union_cycle3)
    assert render_set(s) == "u[{inf}; {0,1}]"
    assert render_set(parse_set("all", cycle3)) == "{0,1,2}"


def test_ideal_literals(cycle3, shift_union_cycle3):
    U = shift_union_cycle3
    I = parse_ideal("meet(Px(c0:0), Pxl(c1:0, 1))", U)
    assert render_ideal(I) == "meet(Px(c0:0), Pxl(c1:0, 1))"
    J = parse_ideal("K({0,1,2})", cycle3)
    assert render_ideal(J) == "K({0,1,2})"
    G = parse_ideal("gen(1 - d^3)", cycle3, exact=True)
    assert len(G.gens) == 1
    from crossedprod.errors import UnsupportedQueryError
    with pytest.raises(UnsupportedQueryError):
        parse_ideal("Px(0)", cycle3)  # periodic base point is rejected


def test_torus_literals(cycle3):
    T = parse_torus("t[0: poly{-1,0,0,1}; 1: full]", cycle3)
    assert len(T.entries) == 2
    assert render_torus(T) == "t[0: poly{-1,0,0,1}; 1: full]"
    T2 = parse_torus("t[0*: full]", cycle3)
    assert T2.entries[0].use_closure


def test_scalar_text(cycle3):
    assert parse_scalar_text("3/5+4/5i", True) == sc.rational_circle_point(Fraction(1, 2))
    assert abs(parse_scalar_text("-1i", False) + 1j) == 0


def test_parser_fuzz_never_crashes(cycle3, rng):
    alphabet = "dfE(){}[]+-*^:,;ui0123456789./ shtpinfadjPxlQK"
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
        try:
            parse_elem(text, cycle3)
        except ParseError:
            pass


@pytest.mark.parametrize("text,col", [("(1+d)^1000", 7), ("(1+d)^30000", 7),
                                      ("(1 + d + d^2 + f{0:2}*d^3)^300", 28)])
def test_a_power_too_costly_to_form_is_refused_before_its_products(text, col):
    """(1+d)^1000 held 3,003 values, well inside MAX_VALUES, yet took
    seconds: the pairs budget stops it before the product that would pass
    MAX_PAIRS."""
    import time
    from crossedprod.cli import run_command
    argv = ["--config", str(DATA / "cycle3_exact.cfg"), "eval", "--elem", text]
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_command(argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert f"col {col}: power too costly: more than {MAX_PAIRS} coefficient pairs" \
        in err.getvalue()


def test_a_power_too_large_to_hold_is_refused_at_its_exponent():
    import time
    from crossedprod.cli import run_command
    argv = ["--config", str(DATA / "shift.cfg"), "eval", "--elem",
            "(sh{inf:1,2:3}*d)^1000000000"]
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_command(argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert "col 19: power too large" in err.getvalue()
    # a^n holds n + 1 values: the value at infinity and n exceptions
    a = "(sh{inf:1,2:3}*d)"
    assert len(parse_elem(f"{a}^{MAX_VALUES - 1}", ShiftSystem()).coeffs) == 1
    with pytest.raises(ParseError):
        parse_elem(f"{a}^{MAX_VALUES}", ShiftSystem())
