"""The grammar each model owns and the grammar they share.

Every function tag and set word is read on its own model and refused, by
name, on each other one; integer slots refuse decimals and fractions;
numbers and names are ASCII; input nested too deeply, and a union nested
more than ``UnionSystem.MAX_DEPTH`` levels deep, is a parse error; and
a seeded word-level fuzz through the library and the CLI raises nothing but
the library's own errors.
"""

import contextlib
import io
import random
from pathlib import Path

import pytest

from crossedprod.cli import run_command
from crossedprod.dynsys import UnionSystem
from crossedprod.errors import CrossedProdError, ParseError
from crossedprod.parsing import (
    parse_config, parse_elem, parse_ideal, parse_point, parse_scalar_text, parse_set,
    parse_torus,
)

DATA = Path(__file__).parent / "data"
CONFIGS = ("cycle3_exact.cfg", "rotation_golden.cfg", "shift.cfg", "swapfix.cfg",
           "union_shift_cycle3.cfg")


def config(name):
    cfg = parse_config((DATA / name).read_text())
    return cfg.system, cfg.mode == "exact"


def cli(*argv):
    """Exit code, stdout and stderr of one run_command call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Mismatch matrix: each tag and set word is accepted exactly on its own model

FUNC_LITERALS = {"f": "f{0:1,1:0,2:0}", "sh": "sh{inf:1,2:0}", "tp": "tp{1:1}",
                 "u": "u[sh{inf:1}; f{0:0,1:2,2:0}]"}
SET_LITERALS = {"circle": "circle", "co": "co{1,2}", "u": "u[co{}; {0}]"}


@pytest.mark.parametrize("name", CONFIGS)
def test_each_tag_and_set_word_is_read_on_its_own_model_only(name):
    system, exact = config(name)
    for tag, text in FUNC_LITERALS.items():
        if tag == system.func_tag:
            assert repr(parse_elem(text, system, exact)) == text
        else:
            with pytest.raises(ParseError, match=f"^line 1, col 1: {tag} literal on a "
                                                 f"{system.kind} system$"):
                parse_elem(text, system, exact)
    for word, text in SET_LITERALS.items():
        if word in system.set_words:
            assert repr(parse_set(text, system)) == text
        else:
            with pytest.raises(ParseError, match=f"{word} literal on a {system.kind} system"):
                parse_set(text, system)


def test_a_union_part_is_read_by_its_component():
    system, _ = config("union_shift_cycle3.cfg")
    with pytest.raises(ParseError, match="col 3: f literal on a shift system"):
        parse_elem("u[f{0:1}; 0]", system)
    with pytest.raises(ParseError, match="col 8: co literal on a finite system"):
        parse_set("u[all; co{1}]", system)
    assert repr(parse_elem("u[0; f{2:1}]", system)) == "u[sh{inf:0}; f{0:0,1:0,2:1}]"


# ---------------------------------------------------------------------------
# Integer slots


@pytest.mark.parametrize("cfg,reader,text", [
    ("cycle3_exact.cfg", parse_elem, "f{1/2:1}"),
    ("cycle3_exact.cfg", parse_elem, "f{1.5:1}"),
    ("rotation_golden.cfg", parse_elem, "tp{0.5:1}"),
    ("shift.cfg", parse_elem, "sh{inf:0,1.5:1}"),
    ("shift.cfg", parse_set, "co{1.5}"),
    ("union_shift_cycle3.cfg", parse_elem, "u[sh{inf:0,2/1:1}; 0]"),
], ids=["finite_fraction", "finite_decimal", "trig_frequency", "shift_exception",
        "cofinite_member", "union_part"])
def test_an_integer_slot_refuses_decimals_and_fractions(cfg, reader, text):
    system, exact = config(cfg)
    with pytest.raises(ParseError, match="integer expected"):
        reader(text, system, exact) if reader is parse_elem else reader(text, system)


@pytest.mark.parametrize("decl", [
    "rotation { theta surd -1 1 5/2 2 }",
    "rotation { theta surd -1 1.5 5 2 }",
    "finite { points 2.5 sigma 1 0 }",
    "finite { points 2 sigma 1 0.5 }",
    "finite { points 2 sigma 1/1 0 }",
])
def test_a_config_integer_slot_is_a_parse_error(decl, tmp_path):
    with pytest.raises(ParseError, match="integer expected"):
        parse_config(f"system {decl}")
    path = tmp_path / "bad.cfg"
    path.write_text(f"system {decl}\n")
    code, out, err = cli("--config", str(path), "report")
    assert (code, out) == (3, "") and "integer expected" in err


def test_integer_slots_still_read_integers():
    system, _ = config("shift.cfg")
    assert repr(parse_elem("sh{inf:0,-2:1}", system)) == "sh{inf:0,-2:1}"
    assert repr(parse_set("co{-1,3}", system)) == "co{-1,3}"
    assert parse_config("system rotation { theta surd -1 1 5 2 }").system.theta.r == 5


# ---------------------------------------------------------------------------
# ASCII numbers and names


@pytest.mark.parametrize("text,col", [("d^²", 3), ("²", 1), ("٣", 1),
                                      ("f{٣:1}", 3), ("dé", 2)])
def test_a_non_ascii_digit_or_letter_is_a_parse_error_at_the_character(text, col):
    system, exact = config("cycle3_exact.cfg")
    with pytest.raises(ParseError) as ei:
        parse_elem(text, system, exact)
    assert (ei.value.line, ei.value.col) == (1, col)
    assert ei.value.message == f"unexpected character {text[col - 1]!r}"


@pytest.mark.parametrize("elem", ["d^²", "٣"])
def test_non_ascii_digits_exit_with_a_parse_error(elem):
    code, out, err = cli("--config", str(DATA / "cycle3_exact.cfg"), "eval", "--elem", elem)
    assert (code, out) == (3, "") and "unexpected character" in err


def test_token_positions_and_the_end_after_a_comment():
    from crossedprod.parsing import _tokenize
    toks = _tokenize("f{1.5e-3:.5}\n  ab_1 2. # note")
    assert [(t.kind, t.text, t.line, t.col) for t in toks] == [
        ("name", "f", 1, 1), ("{", "{", 1, 2), ("num", "1.5e-3", 1, 3), (":", ":", 1, 9),
        ("num", ".5", 1, 10), ("}", "}", 1, 12), ("name", "ab_1", 2, 3), ("num", "2.", 2, 8),
        ("end", "", 2, 17)]
    assert [t.text for t in _tokenize("1e+x 1.2.3 4e")] == ["1", "e", "+", "x", "1.2", ".3",
                                                           "4", "e", ""]


# ---------------------------------------------------------------------------
# Deep nesting


@pytest.mark.parametrize("elem", ["(" * 300 + "1" + ")" * 300,
                                  "adj(" * 300 + "d" + ")" * 300],
                         ids=["parentheses", "adjoints"])
def test_deep_nesting_is_a_parse_error(elem):
    code, out, err = cli("--config", str(DATA / "cycle3_exact.cfg"), "eval", "--elem", elem)
    assert (code, out) == (3, "") and "nested too deeply" in err


def nested_unions(depth):
    return ("system " + "union { component " * depth + "finite { points 1 sigma 0 }"
            + " }" * depth + "\n")


def test_deeply_nested_unions_never_escape_the_cli(tmp_path):
    # 400 levels may read but be too deep to print (an error, exit 2), which
    # turns on how deep the caller's stack already is; 2,000 are too deep to read
    path = tmp_path / "deep.cfg"
    path.write_text(nested_unions(400))
    code, _, err = cli("--config", str(path), "eval", "--elem", "1")
    assert code in range(5) and "Traceback" not in err
    path.write_text(nested_unions(2000))
    code, out, err = cli("--config", str(path), "eval", "--elem", "1")
    assert (code, out) == (3, "") and "nested too deeply" in err


def test_a_union_one_level_too_deep_is_refused_at_its_component(tmp_path):
    MAX_DEPTH = UnionSystem.MAX_DEPTH
    text = nested_unions(MAX_DEPTH + 1)
    path = tmp_path / "deep.cfg"
    path.write_text(text)
    col = 0
    for _ in range(MAX_DEPTH + 1):  # the component that opens one level too many
        col = text.index("component", col) + 1
    code, out, err = cli("--config", str(path), "eval", "--elem", "1")
    assert (code, out) == (3, "")
    assert err == (f"parse error: line 1, col {col}: "
                   f"unions nested too deeply: at most {MAX_DEPTH} levels\n")


def test_the_deepest_union_a_config_may_nest_runs_every_command(tmp_path):
    MAX_DEPTH = UnionSystem.MAX_DEPTH
    path = tmp_path / "deep.cfg"
    path.write_text(nested_unions(MAX_DEPTH))
    func = "u[" * MAX_DEPTH + "f{0:2}" + "]" * MAX_DEPTH
    point = "c0:" * MAX_DEPTH + "0"
    code, out, _ = cli("--config", str(path), "eval", "--elem", "1")
    assert (code, out) == (0, "u[" * MAX_DEPTH + "f{0:1}" + "]" * MAX_DEPTH + "\n")
    code, out, _ = cli("--config", str(path), "eval", "--elem", f"{func} * d")
    assert (code, out) == (0, f"{func}*d\n")
    code, out, _ = cli("--config", str(path), "report")
    assert code == 0 and out.startswith("free=false minimal=true\n")
    assert f"witness: periodic point {point}\n" in out
    code, out, _ = cli("--config", str(path), "zeros", "--ideal", "gen(1 - d)")
    assert code == 0 and out.startswith(f"t[{point}: ") and "\nnonempty\n" in out
    assert f"witness: point {point}\n" in out and "witness: parameter 1\n" in out


# ---------------------------------------------------------------------------
# Word-level fuzz: the library and the CLI

WORDS = ("f", "sh", "tp", "u", "circle", "co", "all", "empty", "Px", "Pxl", "Qx", "K", "meet",
         "gen", "t", "full", "roots", "poly", "d", "adj", "E", "inf", "i", "c0", "c1", "x")
BRACKETS = tuple("{}()[]:,;*+-^/") + (" + ", " * ")
NUMBERS = ("0", "1", "2", "-1", "1.5", "1/2", "3/0", "1e400", "²")
# whole literals of each model, so that some draws read
PHRASES = ("f{0:1}", "f{1:1/2,2:i}", "sh{inf:1,-1:0}", "tp{-1:1,1:1}", "u[0; f{2:1}]",
           "u[sh{inf:0,0:1}; 0]", "d", "adj(d)", "co{1}", "{0,1}", "{inf}", "u[all; {0}]",
           "Px(c0:0)", "Pxl(0, 1)", "Qx(inf)", "K(all)", "gen(1 - d)", "c1:0: full",
           "0*: roots{1}")


def fuzz_texts(seed, count):
    rng = random.Random(seed)
    pools = (WORDS, BRACKETS, BRACKETS, NUMBERS, PHRASES, PHRASES)
    for _ in range(count):
        sep = rng.choice(("", " "))
        yield sep.join(rng.choice(rng.choice(pools)) for _ in range(rng.choice((1, 1, 3, 3, 6))))


@pytest.mark.parametrize("name", CONFIGS)
def test_library_fuzz_raises_only_library_errors(name):
    system, exact = config(name)
    readers = (lambda t: parse_elem(t, system, exact), lambda t: parse_set(t, system),
               lambda t: parse_ideal(t, system, exact), lambda t: parse_point(t, system),
               lambda t: parse_scalar_text(t, exact), lambda t: parse_torus(t, system, exact),
               parse_config)
    for text in fuzz_texts(CONFIGS.index(name), 250):
        for read in readers:
            try:
                read(text)
            except CrossedProdError:
                pass


def test_cli_fuzz_exits_with_a_known_code_and_no_traceback():
    rng = random.Random(5)
    texts = fuzz_texts(17, 400)
    for text in texts:
        cfg = str(DATA / rng.choice(CONFIGS))
        command = rng.choice([["eval", "--elem", text],
                              ["member", "--ideal", f"gen({text})", "--elem", "d"],
                              ["hull", "--ideal", text], ["zeros", "--ideal", f"gen({text})"],
                              ["isynth", "--torus", f"t[{text}]"], ["kernel", "--set", text]])
        code, _, err = cli("--config", cfg, *command)
        assert code in range(5) and "Traceback" not in err, (cfg, command, err)
