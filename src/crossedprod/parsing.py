"""Parsers for system configs, element expressions, sets, ideals and torus sets.

Config grammar (line oriented, braces for nesting):

    config   : stmt*
    stmt     : "system" sysdecl | "mode" ("exact" | "float") | "tolerance" NUM
    sysdecl  : kind "{" fields "}"
    kind     : "finite" | "shift" | "rotation" | "union"
    fields   : finite  -> "points" INT , "sigma" INT+
               rotation-> "theta" ("surd" INT INT INT INT | NUM) ,
                          "irrational" ("true"|"false")
               union   -> ("component" sysdecl)+

Element expression grammar:

    expr    : term (("+" | "-") term)*
    term    : factor ("*" factor)*
    factor  : atom ("^" SINT)?
    atom    : scalar | funcLit | "d" | "adj" "(" expr ")" | "E" "(" expr ")"
            | "(" expr ")"
    funcLit : "f{" INT ":" scalar ("," INT ":" scalar)* "}"          finite
            | "sh{" "inf" ":" scalar ("," INT ":" scalar)* "}"       shift
            | "tp{" INT ":" scalar ("," INT ":" scalar)* "}"         rotation
            | "u[" (funcLit | "0") (";" (funcLit | "0"))* "]"       union
    scalar  : complex literal with rational or decimal parts, e.g. 2, -1/2,
              0.25, 3i, 1+2i, -1/3-1/4i

INT is an optionally negative run of digits: a decimal or a fraction in an
INT slot is a parse error.  Numbers and names are ASCII.

Set literals: all | empty | circle | {points} | co{INT, ...} | u[set; ...].
Ideal literals: Px(point), Pxl(point, scalar), Qx(point), K(set),
meet(ideal, ...) or meet(), gen(expr, ...).
Torus literals: t[entry; ...] with entry = point "*"? ":" lamdesc and
lamdesc = full | roots{scalar, ...} | poly{scalar, ...}.

This module reads what the models share: tokens, numbers, scalars, points,
element expressions and the all/empty/brace sets.  Each system class reads
the rest of its own syntax next to the code that writes it (``kind`` and
``read_declaration`` for its declaration, ``func_tag`` and ``read_func``
for its function literal, ``set_words`` and ``read_set`` for its set
literals), through the :class:`_Stream` methods below; a tag or set word of
another model is refused here, in one place.  The ideal and transform
layers read their literals the same way (``reps_ideals.read_ideal``,
``transform.read_torus``); ``parse_ideal`` and ``parse_torus`` load them.

Every value these parsers build prints its own literal as its ``repr``, so
``parse_*(repr(v))`` gives ``v`` back; the ``render_*`` names here are
``repr``, and ``fmt_real`` and ``render_scalar`` come from :mod:`.scalars`.
A decimal beyond the float range, a tolerance that is negative or not
finite, input nested too deeply to read and a power too large to hold or too
costly to form are parse errors; an expression whose float value overflows
raises OverflowError.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from . import dynsys
from . import scalars as sc
from .algebra import Element, alg_add, alg_mul, alg_adj, alg_scale, alg_sub, \
    check_finite, delta_power, expectation, from_func, unit
from .dynsys import INF, Point, validate_point
from .errors import ModeMismatchError, ParseError, SystemMismatchError
from .records import record
from .scalars import fmt_real as fmt_real, render_scalar as render_scalar


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN = re.compile(r"(?P<nl>\n)|[ \t\r]+|#[^\n]*"
                    r"|(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
                    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[][{}()^*+:,;/-])|(?P<bad>.)",
                    re.S)
_FUNC_TAGS = ("f", "sh", "tp", "u")
MAX_VALUES = 10 ** 5  # scalars the running result of a power may hold
MAX_PAIRS = 5 * 10 ** 4  # coefficient pairs the products of a power may form in all
MAX_ROUNDS = 1000  # averaging rounds; the order 2^rounds must stay inside the float range
MAX_CHECKS = 10 ** 5  # checks galois --samples n may make, about 2.5 n^2
MAX_ENTRIES = 10 ** 5  # rep --window W: (2W + 1)^2 matrix entries times coefficients
_SET_WORDS = ("circle", "co", "u")


@record
class Token:
    kind: str  # "num" | "name" | punct literal | "end"
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[Token]:
    toks = []
    line, start = 1, 0  # start: the offset where the current line begins
    for m in _TOKEN.finditer(src):
        kind, text = m.lastgroup, m.group()
        if kind == "nl":
            line, start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, m.start() - start + 1)
        elif kind:  # whitespace and comments have no group
            toks.append(Token(text if kind == "punct" else kind, text, line,
                              m.start() - start + 1))
    toks.append(Token("end", "", line, len(src) - start + 1))
    return toks


class _Stream:
    """A token stream with the readers the grammar's productions share; the
    models and the ideal and transform layers read their own syntax through them."""

    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.pos = 0
        self.depth = 0  # system declarations open here, which a union bounds

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "end":
            self.pos += 1
        return t

    def fail(self, message: str | None = None, expected=(), at: Token | None = None):
        """Raise a ParseError at the token at (the next one by default); the
        default message names what was found there."""
        t = at or self.peek()
        if message is None:
            message = f"found {t.text!r}" if t.kind != "end" else "unexpected end of input"
        raise ParseError(message, t.line, t.col, expected=expected) from None

    def expect(self, kind: str, what: str | None = None) -> Token:
        if self.peek().kind != kind:
            self.fail(expected=(what or kind,))
        return self.next()

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect_name(self, *names: str) -> Token:
        t = self.peek()
        if t.kind != "name" or (names and t.text not in names):
            self.fail(expected=names or ("identifier",))
        return self.next()

    def word(self, text: str) -> Token | None:
        """The next token, taken if it is the name text."""
        t = self.peek()
        return self.next() if t.kind == "name" and t.text == text else None

    def at_end(self) -> bool:
        return self.peek().kind == "end"

    # numbers and scalars

    def number(self):
        """-? NUM, or -? INT "/" INT: an int, a Fraction or a float."""
        neg = self.accept("-") is not None
        t = self.expect("num", "number")
        if not t.text.isdigit():
            v = self._decimal(t)
        elif self.accept("/"):
            den = self.expect("num", "integer denominator")
            if not den.text.isdigit() or int(den.text) == 0:
                self.fail("fraction denominator must be a nonzero integer", at=den)
            v = Fraction(int(t.text), int(den.text))
        else:
            v = int(t.text)
        return -v if neg else v

    def integer(self) -> int:
        """-? INT: a decimal or a fraction here is a parse error."""
        t = self.peek()
        v = self.number()
        if type(v) is not int:
            self.fail("integer expected", at=t)
        return v

    def _decimal(self, t: Token) -> float:
        v = float(t.text)
        if v == math.inf:
            self.fail(f"number {t.text} is beyond the float range", at=t)
        return v

    def scalar(self, exact: bool):
        total = self.signed_part(exact)
        while self.peek().kind in "+-":
            total = total + self.signed_part(exact)
        return total

    def signed_part(self, exact: bool):
        sign = -1 if self.accept("-") else 1
        if sign == 1:
            self.accept("+")
        if self.word("i"):
            return sc.QComplex(Fraction(0), Fraction(sign)) if exact else complex(0, sign)
        num = self.expect("num", "number")
        if not num.text.isdigit():
            if exact:
                self.fail("decimal literal in exact mode", at=num)
            val = self._decimal(num)
        else:
            val = Fraction(int(num.text)) if exact else self._decimal(num)
        if self.accept("/"):
            den = self.expect("num", "denominator")
            if not den.text.isdigit() or int(den.text) == 0:
                self.fail("fraction denominator must be a nonzero integer", at=den)
            val = val / (Fraction(int(den.text)) if exact else self._decimal(den))
        if self.word("i"):
            return sc.QComplex(Fraction(0), sign * val) if exact else complex(0, sign * val)
        return sc.QComplex(sign * val, Fraction(0)) if exact else complex(sign * val, 0)

    def braced(self, item) -> list:
        """'{' item (',' item)* '}', or '{}'."""
        self.expect("{")
        out = []
        if not self.accept("}"):
            out = [item()]
            while self.accept(","):
                out.append(item())
            self.expect("}")
        return out

    def entry(self, exact: bool):
        """INT ':' scalar, as a pair."""
        k = self.integer()
        self.expect(":")
        return k, self.scalar(exact)

    def coord(self, leaf):
        """A point coordinate of the leaf system: inf or a number it names."""
        t = self.peek()
        if self.word("inf"):
            return INF
        coord = leaf.coord(self.number())
        if coord is None:
            self.fail("integer point expected", at=t)
        return coord

    def point(self, system) -> Point:
        """A point of the system: its union path (c INT ':' per level), then a coordinate."""
        path = []
        while self.peek().kind == "name" and self.peek().text.startswith("c") \
                and self.peek().text[1:].isdigit():
            path.append(int(self.next().text[1:]))
            self.expect(":")
        x = Point(self.coord(system.leaf(tuple(path))), tuple(path))
        validate_point(system, x)
        return x

    # element expressions

    def expr(self, system, exact: bool) -> Element:
        e = self._term(system, exact)
        while True:
            if self.accept("+"):
                e = alg_add(e, self._term(system, exact))
            elif self.accept("-"):
                e = alg_sub(e, self._term(system, exact))
            else:
                return e

    def _term(self, system, exact: bool) -> Element:
        e = self._factor(system, exact)
        while self.accept("*"):
            e = alg_mul(e, self._factor(system, exact))
        return e

    def _factor(self, system, exact: bool) -> Element:
        a = self._atom(system, exact)
        if self.accept("^"):
            neg = self.accept("-") is not None
            t = self.expect("num", "integer exponent")
            if not t.text.isdigit():
                self.fail("integer exponent expected", at=t)
            n = int(t.text)
            if neg:
                inv = _try_invert(a)
                if inv is None:
                    self.fail("negative power of a non-invertible element", at=t)
                a = inv
            out, pairs = unit(system, exact), 0
            for bit in bin(n)[2:]:  # square and multiply: the algebra is associative
                for b in (out, a) if bit == "1" else (out,):
                    pairs += len(out.coeffs) * len(b.coeffs)  # the products' work, before it
                    if pairs > MAX_PAIRS:
                        self.fail(f"power too costly: more than {MAX_PAIRS} coefficient pairs",
                                  at=t)
                    out = alg_mul(out, b)
                if sum(len([*system.scalars(f.data)]) for f in out.coeffs.values()) > MAX_VALUES:
                    self.fail(f"power too large: more than {MAX_VALUES} values", at=t)
            return out
        return a

    def _atom(self, system, exact: bool) -> Element:
        t = self.peek()
        if t.kind == "(":
            self.next()
            e = self.expr(system, exact)
            self.expect(")")
            return e
        if t.kind == "num" or t.kind in "+-" or (t.kind == "name" and t.text == "i"):
            return alg_scale(self.signed_part(exact), unit(system, exact))
        if t.kind == "name":
            if self.word("d"):
                return delta_power(system, 1, exact)
            if t.text in ("adj", "E"):
                self.next()
                self.expect("(")
                e = self.expr(system, exact)
                self.expect(")")
                return alg_adj(e) if t.text == "adj" else from_func(expectation(e))
            if t.text in _FUNC_TAGS:
                return from_func(self.func(system, exact))
        self.fail(expected=("scalar", "function literal", "d", "adj", "E", "("))

    # the syntax each model owns, behind one check that it is the model's own

    def sysdecl(self):
        t = self.expect_name("finite", "shift", "rotation", "union")
        self.expect("{")
        self.depth += 1
        system = getattr(dynsys, t.text.capitalize() + "System").read_declaration(self)
        self.depth -= 1
        return system

    def func(self, system, exact: bool):
        t = self.expect_name(*_FUNC_TAGS)
        if t.text != system.func_tag:
            self.fail(f"{t.text} literal on a {system.kind} system", at=t)
        return system.read_func(self, exact)

    def set(self, system):
        t = self.peek()
        if self.word("all"):
            return system.whole_space()
        if self.word("empty"):
            return system.empty_set()
        if t.kind == "name" and t.text in _SET_WORDS:
            if t.text not in system.set_words:
                self.fail(f"{t.text} literal on a {system.kind} system")
            self.next()
            return system.read_set(self, t.text)
        if t.kind == "{":  # the closed set of the listed points of a leaf system
            try:
                leaf = system.leaf(())
            except SystemMismatchError:
                self.fail("brace set literal on a union system needs u[...]")
            coords = self.braced(lambda: self.coord(leaf))
            for c in coords:
                try:
                    leaf.check_coord(c)
                except SystemMismatchError:
                    self.fail(f"point {c} outside the system", at=t)
            return leaf.points_to_set([Point(c) for c in coords])
        self.fail(expected=("all", "empty", *_SET_WORDS, "{"))


def _read(text: str, read, what: str, expected=()):
    """read(stream) over text, once it leaves no input after it.  Input
    nested deeper than the interpreter's stack is a parse error."""
    s = _Stream(text)
    try:
        value = read(s)
    except RecursionError:
        s.fail("nested too deeply")
    if not s.at_end():
        s.fail(f"trailing input after {what}", expected)
    return value


# ---------------------------------------------------------------------------
# System configs


@record(eq=False)
class SystemConfig:
    system: object
    mode: str  # "exact" | "float"
    tolerance: float


def parse_config(text: str) -> SystemConfig:
    return _read(text, _config, "config")


def _config(s: _Stream) -> SystemConfig:
    system = None
    mode = "float"
    tol = sc.DEFAULT_TOL
    while not s.at_end():
        key = s.expect_name("system", "mode", "tolerance")
        if key.text == "system":
            system = s.sysdecl()
        elif key.text == "mode":
            mode = s.expect_name("exact", "float").text
        else:
            t = s.peek()
            v = s.number()
            try:
                tol = sc.check_tolerance(v)
            except (ValueError, OverflowError) as ex:  # overflow: an integer too large
                s.fail(str(ex), at=t)
    if system is None:
        s.fail("config declares no system")
    if mode == "exact":
        try:  # each model's normal form says whether it takes exact scalars
            system.const(sc.one_like(True))
        except ModeMismatchError:
            s.fail("exact mode is not available with rotation components")
    return SystemConfig(system, mode, tol)


def render_config(cfg: SystemConfig) -> str:
    return (f"system {cfg.system.declaration('')}\nmode {cfg.mode}\n"
            f"tolerance {fmt_real(cfg.tolerance)}\n")


# ---------------------------------------------------------------------------
# Scalars and points


def parse_scalar_text(text: str, exact: bool):
    return _read(text, lambda s: s.scalar(exact), "scalar")


def parse_point(text: str, system) -> Point:
    return _read(text, lambda s: s.point(system), "point")


# ---------------------------------------------------------------------------
# Element expressions


def parse_elem(text: str, system, exact: bool = False) -> Element:
    """The element an expression names; OverflowError if a float value of
    it overflowed."""
    return check_finite(_read(text, lambda s: s.expr(system, exact), "expression",
                              ("+", "-", "*", "^", "end of input")))


def _try_invert(a: Element) -> Element | None:
    if len(a.coeffs) != 1:
        return None
    (k, f), = a.coeffs.items()
    inv = f.system.inverse(f)
    if inv is None:
        return None
    # (f d^k)^-1 = d^-k f^-1 = (f^-1 o sigma^k) d^-k
    return Element(a.system, {-k: a.system.compose_sigma(inv, k)})


# ---------------------------------------------------------------------------
# Closed set literals


def parse_set(text: str, system):
    return _read(text, lambda s: s.set(system), "set")


# ---------------------------------------------------------------------------
# Ideal and torus literals, read by their layers (an element call loads neither)


def parse_ideal(text: str, system, exact: bool = False):
    from .reps_ideals import read_ideal
    return _read(text, lambda s: read_ideal(s, system, exact), "ideal")


def parse_torus(text: str, system, exact: bool = False, tol: float = sc.DEFAULT_TOL):
    from .transform import read_torus
    return _read(text, lambda s: read_torus(s, system, exact, tol), "torus set")


# ---------------------------------------------------------------------------
# Rendering: each value's repr is its literal in the grammars above

render_point = render_func = render_element = render_set = render_ideal = repr
render_lamdesc = render_torus = repr
