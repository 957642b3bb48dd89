import contextlib
import io
import os
import random
from pathlib import Path

import pytest

from crossedprod.cli import run_command

from cli_cases import CASES

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
REGEN = os.environ.get("CROSSEDPROD_REGEN") == "1"


def invoke(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_command(argv)
    return code, buf.getvalue()


def full_argv(cfg, tail):
    pre = ["--config", str(DATA / cfg), "--seed", "1"]
    if tail and tail[0] == "--records":
        return pre + ["--records"] + tail[1:]
    return pre + tail


@pytest.mark.parametrize("name,cfg,tail", CASES, ids=[c[0] for c in CASES])
def test_golden(name, cfg, tail):
    code, out = invoke(full_argv(cfg, tail))
    assert code == 0, out
    path = GOLDEN / f"{name}.txt"
    if REGEN:
        path.write_text(out, encoding="utf-8")
    want = path.read_text(encoding="utf-8")
    assert out == want


def test_output_is_deterministic():
    for name, cfg, tail in CASES[:6] + CASES[-2:]:
        c1, o1 = invoke(full_argv(cfg, tail))
        c2, o2 = invoke(full_argv(cfg, tail))
        assert (c1, o1) == (c2, o2)


def test_exit_codes():
    cfg = str(DATA / "cycle3_exact.cfg")
    code, _ = invoke(["--config", cfg, "eval", "--elem", "d * "])
    assert code == 3
    code, _ = invoke(["--config", cfg, "member", "--ideal", "gen(d)",
                      "--elem", "d"])
    assert code == 4
    code, _ = invoke(["--config", cfg, "nosuchcommand"])
    assert code == 2
    code, _ = invoke(["--config", "/nonexistent.cfg", "eval", "--elem", "1"])
    assert code == 2
    code, _ = invoke(["--config", cfg, "eval", "--elem", "1"])
    assert code == 0


def test_check_help_lists_every_suite_and_an_unknown_suite_is_a_usage_error():
    # the parser lists the suites without loading them
    from crossedprod.checks import SUITES
    cfg = str(DATA / "cycle3_exact.cfg")
    code, out = invoke(["--config", cfg, "check", "--help"])
    assert code == 0
    assert out.split("--suite {", 1)[1].split("}", 1)[0].split(",") == sorted(SUITES)
    assert invoke(["--config", cfg, "check", "--suite", "no.such.suite"])[0] == 2


EXACT_SUITE_CHECKS = {"algebra.axioms": 360, "dual.average": 100, "expectation.laws": 240,
                      "galois.HK": 76, "galois.ZI": 82, "galois.hk": 4240,
                      "inclusion.table": 16, "reps.kernel": 40}


@pytest.mark.parametrize("suite", sorted(EXACT_SUITE_CHECKS))
def test_check_suites_run_in_exact_mode(suite, capsys):
    # the suites draw their torus parameters in the config's numeric mode;
    # each passes, and its count of checks is pinned
    code, out = invoke(["--config", str(DATA / "cycle3_exact.cfg"), "check", "--suite", suite])
    assert "Traceback" not in out + capsys.readouterr().err
    assert (code, out) == (0, f"{suite}: ok ({EXACT_SUITE_CHECKS[suite]} checks)\n")


def test_a_suite_that_checks_nothing_says_so():
    # the golden rotation has no Pxl handle, so the kernel suite has nothing to check
    code, out = invoke(["--config", str(DATA / "rotation_golden.cfg"), "check",
                        "--suite", "reps.kernel"])
    assert (code, out) == (0, "reps.kernel: vacuous (0 checks)\n")


def test_tolerance_env_override(monkeypatch):
    # tolerances only act in float mode; exact mode compares exactly
    cfg = str(DATA / "swapfix.cfg")
    monkeypatch.setenv("CROSSEDPROD_TOL", "0.5")
    code, out = invoke(["--config", cfg, "member", "--ideal", "Qx(2)",
                        "--elem", "f{2:1/1000000}"])
    assert code == 0 and out.strip() == "true"
    monkeypatch.delenv("CROSSEDPROD_TOL")
    code, out = invoke(["--config", cfg, "member", "--ideal", "Qx(2)",
                        "--elem", "f{2:1/1000000}"])
    assert out.strip() == "false"


@pytest.mark.parametrize("px,pxl", [("Px(c0:0)", "Pxl(c0:inf, 1)"),
                                    ("Px(c0:0)", "Pxl(c1:0, 1)"),
                                    ("Qx(c1:0)", "Pxl(c1:0, 1)"),
                                    ("K(u[{inf}; {}])", "Pxl(c1:0, 1)")])
def test_meet_behaviour_ignores_the_order_of_its_parts(px, pxl):
    # a Px part met with a Pxl part is classified in either order, witnesses
    # included; with Qx or K beside the Pxl part the shape stays unsupported
    runs = [invoke(full_argv("union_shift_cycle3.cfg",
                             ["behaviour", "--ideal", f"meet({a}, {b})"]))
            for a, b in ((px, pxl), (pxl, px))]
    assert runs[0] == runs[1]
    assert runs[0][0] == (0 if px.startswith("Px") else 4)


def test_records_mode_shape():
    cfg = str(DATA / "cycle3_exact.cfg")
    code, out = invoke(["--config", cfg, "--records", "norm", "--elem", "d"])
    assert code == 0
    import json
    rec = json.loads(out.strip())
    assert list(rec) == ["operation", "inputs_digest", "outcome", "witnesses"]
    assert rec["operation"] == "norm"
    assert len(rec["inputs_digest"]) == 12


def test_cli_fuzz_never_crashes():
    cfg = str(DATA / "cycle3_exact.cfg")
    rng = random.Random(7)
    alphabet = "dfE(){}[]+-*^:,;ui0123456789./ adjshtp"
    for _ in range(400):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
        code, _ = invoke(["--config", cfg, "eval", "--elem", text])
        assert code in (0, 2, 3, 4)


@pytest.mark.parametrize("argv,code,out", [
    (["eval", "--elem", "1e200 * 1e200"], 2, ""),
    (["norm", "--elem", "1e200 * 1e200"], 2, ""),
    (["norm", "--elem", "1e200 * 1e200 - 1e200 * 1e200"], 2, ""),
    (["eval", "--elem", "-1e200 * 1e200 * d"], 2, ""),
    (["eval", "--elem", "(1e200*d)^2"], 2, ""),
    (["mul", "--a", "1e200*d", "--b", "1e200"], 2, ""),
    (["norm", "--elem", "1e400"], 3, ""),
    (["eval", "--elem", "-1e400 * d"], 3, ""),
    (["eval", "--elem", "1" + "0" * 400], 3, ""),
    (["eval", "--elem", "1/1e400"], 3, ""),
    (["transform", "--elem", "d", "--point", "0", "--lam", "1e999"], 3, ""),
    (["norm", "--elem", "1e308 + 1e308*d"], 2, ""),
    (["transform", "--elem", "1e308 + 1e308*d", "--point", "0", "--lam", "1"], 2, ""),
    (["rep", "--elem", "1e308 + 1e308*d^2", "--point", "0", "--lam", "1"], 2, ""),
    (["norm", "--elem", "1e307 + 1e307*d"], 0, "2e+307\n"),
    (["transform", "--elem", "1e308 + 1e308*d", "--point", "0", "--lam", "-1"], 0, "0\n"),
    (["avg", "--elem", "1e308*d + 1e308*d^2", "--epsilon", "0.1"], 2, ""),
], ids=["inf", "inf_norm", "nan_norm", "inf_nan_term", "inf_power", "inf_product",
        "big_decimal", "big_decimal_term", "big_integer", "big_denominator", "big_lam",
        "inf_norm_sum", "inf_transform_sum", "inf_rep_entry", "norm_near_the_top",
        "transform_near_the_top", "inf_avg_residual"])
def test_non_finite_numbers_print_or_are_refused(argv, code, out, capsys):
    # an element or a printed result whose float value overflows is an error
    # naming the overflow, since no literal reads inf or nan back; a literal
    # beyond the float range is a parse error; never a traceback
    cfg = "rotation_golden.cfg" if argv[0] == "avg" else "swapfix.cfg"  # averaging needs a rotation
    got = run_command(["--config", str(DATA / cfg), *argv])
    captured = capsys.readouterr()
    assert (got, captured.out) == (code, out)
    assert "Traceback" not in captured.err
    if code == 2:
        assert captured.err.startswith("error: float overflow")


def test_an_integer_beyond_the_float_range_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"system rotation {{ theta 1{'0' * 400} irrational true }}\n")
    assert run_command(["--config", str(cfg), "report"]) == 2
    assert "float" in capsys.readouterr().err


def test_number_fuzz_exits_with_a_known_code(capsys):
    cfg = str(DATA / "swapfix.cfg")
    rng = random.Random(11)
    numbers = ["1e200", "1e400", "1e-400", "0", "0.5", "1" + "0" * 320, "3/0", "1/1e9", "i"]
    ops = [" + ", " - ", " * ", "*d^", "^"]
    for _ in range(150):
        text = rng.choice(numbers)
        for _ in range(rng.randint(0, 4)):
            text += rng.choice(ops) + rng.choice(numbers)
        command = rng.choice([["eval", "--elem", text], ["norm", "--elem", text],
                              ["hull", "--ideal", f"gen({text})"],
                              ["zeros", "--ideal", f"gen({text} - d^2)"]])
        assert run_command(["--config", cfg, *command]) in (0, 1, 2, 3, 4), text
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["behaviour", "--ideal", "Pxl(0, 2)"],
    ["member", "--ideal", "Pxl(0, 2)", "--elem", "f{0:1,1:1,2:1} + f{0:-2,1:-2,2:-2}*d^3"],
    ["zeros", "--ideal", "Pxl(0, 2)"],
    ["transform", "--elem", "d^-1", "--point", "0", "--lam", "2"],
    ["rep", "--elem", "d^-1", "--point", "0", "--lam", "2"],
    ["member", "--ideal", "Pxl(0, 0)", "--elem", "1"],
], ids=["behaviour", "member", "zeros", "transform", "rep", "zero"])
def test_a_torus_parameter_off_the_circle_is_an_error(argv, capsys):
    # unchecked, these printed a witness that member denied, the cube roots of unity
    # as the zero set, and 2 as the transform of d^-1 at 2
    assert run_command(["--config", str(DATA / "cycle3_exact.cfg"), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "off the unit circle" in captured.err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf", "1e400"])
def test_a_tolerance_must_be_finite_and_not_negative(tol, tmp_path, monkeypatch, capsys):
    hull = ["hull", "--ideal", "gen(f{0:0,1:1,2:1e-12})"]
    good = str(DATA / "swapfix.cfg")
    assert run_command(["--config", good, "--tol", tol, *hull]) == 2
    monkeypatch.setenv("CROSSEDPROD_TOL", tol)
    assert run_command(["--config", good, *hull]) == 2
    monkeypatch.delenv("CROSSEDPROD_TOL")
    if tol not in ("nan", "inf", "-inf"):  # the config grammar has no such words
        bad = tmp_path / "bad.cfg"
        bad.write_text((DATA / "swapfix.cfg").read_text() + f"tolerance {tol}\n")
        assert run_command(["--config", str(bad), *hull]) == 3
    assert capsys.readouterr().out == ""
    for ok, hull_set in (("1e-9", "{2}"), ("0", "{}")):  # zero is exact comparison
        assert run_command(["--config", good, "--tol", ok, *hull]) == 0
        assert capsys.readouterr().out.startswith(hull_set + "\n")


def test_isynth_reads_a_poly_set_within_the_command_tolerance():
    # zeros and zi find the root of -1.00001 + mu^2 within --tol, and so
    # must isynth when it reads the same poly set back
    swapfix = str(DATA / "swapfix.cfg")

    def run(*argv, tol=("--tol", "1e-4")):
        code, out = invoke(["--config", swapfix, *tol, *argv])
        assert code == 0, out
        return out.splitlines()

    zeros = run("zeros", "--ideal", "gen(-1.00001 + d)")
    assert zeros[:2] == ["t[2: poly{-1.00001,1}]", "nonempty"]
    closure = run("zi", "--ideal", "gen(-1.00001 + d)")
    assert closure == ["meet(Pxl(2, 1))"]
    assert run("isynth", "--torus", zeros[0]) == closure
    assert run("isynth", "--torus", zeros[0], tol=()) == ["meet()"]  # 1.00001 is off the circle


@pytest.mark.parametrize("i1,want", [("Pxl(2, 0.6+0.8i)", "false"),
                                     ("meet(Pxl(2, 0.6+0.8i))", "false"),
                                     ("meet(Pxl(2, 0.6+0.8i), Qx(2))", "true"),
                                     ("meet()", "false")])
def test_a_meet_of_one_pxl_ideal_is_included_as_that_ideal(i1, want):
    # Pxl is prime: a meet lies in it exactly when one of its parts does
    code, out = invoke(["--config", str(DATA / "swapfix.cfg"), "inclusion",
                        "--i1", i1, "--i2", "Pxl(2, 0.6000000001+0.8i)"])
    assert (code, out) == (0, want + "\n")


def test_an_exact_config_reads_back_the_torus_parameters_zi_prints():
    cfg = str(DATA / "cycle3_exact.cfg")
    code, out = invoke(["--config", cfg, "zi", "--ideal", "Pxl(0, 3/5+4/5i)"])
    assert (code, out) == (0, "meet(Pxl(0, 0.6+0.8i))\n")
    printed = out.strip()
    pxl = printed[len("meet("):-1]
    member = ["member", "--ideal", pxl, "--elem", "1 - d^3"]
    assert invoke(["--config", cfg, *member]) == (0, "false\n")
    assert invoke(["--config", cfg, "inclusion", "--i1", "Pxl(0, 3/5+4/5i)",
                   "--i2", printed]) == (0, "true\n")
    assert invoke(["--config", cfg, "eval", "--elem", "0.5"])[0] == 3  # elements stay exact
    # a rational parameter stays exact; one decimal part makes the whole parameter a float
    from crossedprod.parsing import parse_config, parse_ideal
    system = parse_config((DATA / "cycle3_exact.cfg").read_text()).system
    assert repr(parse_ideal("Pxl(0, 3/5+4/5i)", system, True)) == "Pxl(0, 3/5+4/5i)"
    assert repr(parse_ideal("Pxl(0, 3/5+0.8i)", system, True)) == "Pxl(0, 0.6+0.8i)"


def test_report_on_the_golden_rotation_prints_the_averaging_evidence():
    """The free branch of the dichotomy: the averaging run on the sample
    z^0 + ((z^0 + z^1) / 2) d + z^-1 d^-1, pinned byte for byte."""
    code, out = invoke(["--config", str(DATA / "rotation_golden.cfg"), "report"])
    assert code == 0
    assert out == (
        "free=true minimal=true\n"
        "well_behaved_closed_ideals=2\n"
        "dichotomy: free\n"
        "  witness: averaging drives the sample toward its zero coefficient;"
        " averaging residual 0.00452390143022\n"
    )
