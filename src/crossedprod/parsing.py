"""Parsers for system configs, element expressions and ideal literals.

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
    funcLit : "f{" point ":" scalar ("," point ":" scalar)* "}"      finite
            | "sh{" "inf" ":" scalar ("," INT ":" scalar)* "}"       shift
            | "tp{" INT ":" scalar ("," INT ":" scalar)* "}"         rotation
            | "u[" funcLit (";" funcLit)* "]"                        union
    scalar  : complex literal with rational or decimal parts, e.g. 2, -1/2,
              0.25, 3i, 1+2i, -1/3-1/4i

Ideal literals: Px(point), Pxl(point, scalar), Qx(point), K(set),
meet(ideal, ...) or meet(), gen(expr, ...).
Set literals: all | empty | circle | {points} | co{ints} | u[set; ...].
Torus literals: t[entry; ...] with entry = point "*"? ":" lamdesc and
lamdesc = full | roots{scalar, ...} | poly{scalar, ...}.

Every value these parsers build prints its own literal as its ``repr``, so
``parse_*(repr(v))`` gives ``v`` back; the ``render_*`` names here are
``repr``, and ``fmt_real`` and ``render_scalar`` come from :mod:`.scalars`.
A decimal beyond the float range and a tolerance that is negative or not
finite are parse errors.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import scalars as sc
from .algebra import Element, alg_add, alg_mul, alg_adj, alg_scale, alg_sub, \
    delta_power, expectation, from_func, unit
from .dynsys import (
    INF, CircleSet, Point, ShiftSet, UnionSet, empty_set, validate_point, whole_space,
)
from .errors import ModeMismatchError, ParseError, SystemMismatchError
from .funcspace import Func, f_compose_sigma, zero_func
from .records import record
from .scalars import fmt_real as fmt_real, render_scalar as render_scalar


# ---------------------------------------------------------------------------
# Tokenizer

_PUNCT = "{}()[]^*+-:,;/"


@record
class Token:
    kind: str  # "num" | "name" | punct literal | "end"
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[Token]:
    toks = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_dot = seen_exp = False
            while j < n:
                c = src[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j + 1 < n and \
                        (src[j + 1].isdigit() or src[j + 1] in "+-" and j + 2 < n and src[j + 2].isdigit()):
                    seen_exp = True
                    j += 1
                    if src[j] in "+-":
                        j += 1
                else:
                    break
            text = src[i:j]
            toks.append(Token("num", text, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(Token("name", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            toks.append(Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("end", "", line, col))
    return toks


class _Stream:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "end":
            self.pos += 1
        return t

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                f"found {t.text!r}" if t.kind != "end" else "unexpected end of input",
                t.line, t.col, expected=(what or kind,),
            )
        return self.next()

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect_name(self, *names: str) -> Token:
        t = self.peek()
        if t.kind != "name" or (names and t.text not in names):
            raise ParseError(
                f"found {t.text!r}" if t.kind != "end" else "unexpected end of input",
                t.line, t.col, expected=names or ("identifier",),
            )
        return self.next()

    def at_end(self) -> bool:
        return self.peek().kind == "end"


def _done(s: _Stream, value, what: str, expected=()):
    """value, once s has no input left after it."""
    if not s.at_end():
        t = s.peek()
        raise ParseError(f"trailing input after {what}", t.line, t.col, expected=expected)
    return value


# ---------------------------------------------------------------------------
# System configs


@record(eq=False)
class SystemConfig:
    system: object
    mode: str  # "exact" | "float"
    tolerance: float


def parse_config(text: str) -> SystemConfig:
    s = _Stream(text)
    system = None
    mode = "float"
    tol = 1e-9
    while not s.at_end():
        key = s.expect_name("system", "mode", "tolerance")
        if key.text == "system":
            system = _parse_sysdecl(s)
        elif key.text == "mode":
            mode = s.expect_name("exact", "float").text
        else:
            t = s.peek()
            v = _parse_number(s)
            try:
                tol = sc.check_tolerance(v)
            except (ValueError, OverflowError) as ex:  # overflow: an integer too large
                raise ParseError(str(ex), t.line, t.col) from None
    if system is None:
        t = s.peek()
        raise ParseError("config declares no system", t.line, t.col)
    if mode == "exact":
        try:  # each model's normal form says whether it takes exact scalars
            system.const(sc.one_like(True))
        except ModeMismatchError:
            t = s.peek()
            raise ParseError("exact mode is not available with rotation components",
                             t.line, t.col) from None
    return SystemConfig(system, mode, tol)


def _parse_number(s: _Stream):
    neg = s.accept("-") is not None
    t = s.expect("num", "number")
    if not t.text.isdigit():
        v = _decimal(t)
        return -v if neg else v
    if s.accept("/"):
        den = s.expect("num", "integer denominator")
        if not den.text.isdigit() or int(den.text) == 0:
            raise ParseError("fraction denominator must be a nonzero integer",
                             den.line, den.col)
        v = Fraction(int(t.text), int(den.text))
        return -v if neg else v
    v = int(t.text)
    return -v if neg else v


def _decimal(t: Token) -> float:
    v = float(t.text)
    if v == math.inf:
        raise ParseError(f"number {t.text} is beyond the float range", t.line, t.col)
    return v


def _parse_sysdecl(s: _Stream):
    kind = s.expect_name("finite", "shift", "rotation", "union")
    s.expect("{")
    if kind.text == "finite":
        points = None
        sigma = None
        while not s.accept("}"):
            field = s.expect_name("points", "sigma")
            if field.text == "points":
                points = int(s.expect("num", "point count").text)
            else:
                sigma = []
                while s.peek().kind == "num":
                    sigma.append(int(s.next().text))
        if points is None or sigma is None:
            t = s.peek()
            raise ParseError("finite system needs points and sigma", t.line, t.col)
        from .finite import FiniteSystem
        return FiniteSystem(points, tuple(sigma))
    if kind.text == "shift":
        s.expect("}")
        from .shift import ShiftSystem
        return ShiftSystem()
    if kind.text == "rotation":
        from .rotation import RotationSystem, Surd
        theta = None
        irrational = True
        while not s.accept("}"):
            field = s.expect_name("theta", "irrational")
            if field.text == "theta":
                if s.peek().kind == "name" and s.peek().text == "surd":
                    s.next()
                    vals = [int(_parse_number(s)) for _ in range(4)]
                    theta = Surd(*vals)
                else:
                    theta = _parse_number(s)
            else:
                irrational = s.expect_name("true", "false").text == "true"
        if theta is None:
            t = s.peek()
            raise ParseError("rotation system needs theta", t.line, t.col)
        if not irrational and isinstance(theta, Surd):
            t = s.peek()
            raise ParseError("a surd angle declares an irrational rotation", t.line, t.col)
        if not isinstance(theta, Surd):
            theta = Fraction(theta) if not irrational else float(theta)
        return RotationSystem(theta, irrational)
    comps = []
    while not s.accept("}"):
        s.expect_name("component")
        comps.append(_parse_sysdecl(s))
    from .union import UnionSystem
    return UnionSystem(tuple(comps))


def render_config(cfg: SystemConfig) -> str:
    return (f"system {cfg.system.declaration('')}\nmode {cfg.mode}\n"
            f"tolerance {fmt_real(cfg.tolerance)}\n")


# ---------------------------------------------------------------------------
# Scalars and points


def parse_scalar_text(text: str, exact: bool):
    s = _Stream(text)
    return _done(s, _parse_scalar(s, exact), "scalar")


def _parse_scalar(s: _Stream, exact: bool):
    total = _parse_signed_part(s, exact)
    while s.peek().kind in "+-":
        total = total + _parse_signed_part(s, exact)
    return total


def _parse_signed_part(s: _Stream, exact: bool):
    sign = 1
    if s.accept("-"):
        sign = -1
    else:
        s.accept("+")
    t = s.peek()
    if t.kind == "name" and t.text == "i":
        s.next()
        return sc.QComplex(Fraction(0), Fraction(sign)) if exact else complex(0, sign)
    num = s.expect("num", "number")
    if not num.text.isdigit():
        if exact:
            raise ParseError("decimal literal in exact mode", num.line, num.col)
        val = _decimal(num)
    else:
        val = Fraction(int(num.text)) if exact else _decimal(num)
    if s.accept("/"):
        den = s.expect("num", "denominator")
        if not den.text.isdigit() or int(den.text) == 0:
            raise ParseError("fraction denominator must be a nonzero integer",
                             den.line, den.col)
        val = val / (Fraction(int(den.text)) if exact else _decimal(den))
    if s.peek().kind == "name" and s.peek().text == "i":
        s.next()
        return sc.QComplex(Fraction(0), sign * val) if exact else complex(0, sign * val)
    return sc.QComplex(sign * val, Fraction(0)) if exact else complex(sign * val, 0)


def parse_point(text: str, system) -> Point:
    s = _Stream(text)
    return _done(s, _parse_point(s, system), "point")


def _parse_point(s: _Stream, system) -> Point:
    path = []
    while s.peek().kind == "name" and s.peek().text.startswith("c") \
            and s.peek().text[1:].isdigit():
        path.append(int(s.next().text[1:]))
        s.expect(":")
    x = Point(_parse_coord(s, system.leaf(tuple(path))), tuple(path))
    validate_point(system, x)
    return x


def _parse_coord(s: _Stream, leaf):
    t = s.peek()
    if t.kind == "name" and t.text == "inf":
        s.next()
        return INF
    coord = leaf.coord(_parse_number(s))
    if coord is None:
        raise ParseError("integer point expected", t.line, t.col)
    return coord


# ---------------------------------------------------------------------------
# Element expressions


def parse_elem(text: str, system, exact: bool = False) -> Element:
    s = _Stream(text)
    return _done(s, _parse_expr(s, system, exact), "expression",
                 ("+", "-", "*", "^", "end of input"))


def _parse_expr(s: _Stream, system, exact) -> Element:
    e = _parse_term(s, system, exact)
    while True:
        if s.accept("+"):
            e = alg_add(e, _parse_term(s, system, exact))
        elif s.accept("-"):
            e = alg_sub(e, _parse_term(s, system, exact))
        else:
            return e


def _parse_term(s: _Stream, system, exact) -> Element:
    e = _parse_factor(s, system, exact)
    while s.accept("*"):
        e = alg_mul(e, _parse_factor(s, system, exact))
    return e


def _parse_factor(s: _Stream, system, exact) -> Element:
    a = _parse_atom(s, system, exact)
    if s.accept("^"):
        neg = s.accept("-") is not None
        t = s.expect("num", "integer exponent")
        if not t.text.isdigit():
            raise ParseError("integer exponent expected", t.line, t.col)
        n = int(t.text)
        if neg:
            inv = _try_invert(a)
            if inv is None:
                raise ParseError("negative power of a non-invertible element",
                                 t.line, t.col)
            a = inv
        out = unit(system, exact)
        for _ in range(n):
            out = alg_mul(out, a)
        return out
    return a


def _try_invert(a: Element) -> Element | None:
    if len(a.coeffs) != 1:
        return None
    (k, f), = a.coeffs.items()
    inv = f.system.inverse(f)
    if inv is None:
        return None
    # (f d^k)^-1 = d^-k f^-1 = (f^-1 o sigma^k) d^-k
    return Element(a.system, {-k: f_compose_sigma(inv, k)})


def _parse_atom(s: _Stream, system, exact) -> Element:
    t = s.peek()
    if t.kind == "(":
        s.next()
        e = _parse_expr(s, system, exact)
        s.expect(")")
        return e
    if t.kind == "num" or t.kind in "+-" or (t.kind == "name" and t.text == "i"):
        v = _parse_signed_part(s, exact)
        return alg_scale(v, unit(system, exact))
    if t.kind == "name":
        if t.text == "d":
            s.next()
            return delta_power(system, 1, exact)
        if t.text == "adj":
            s.next()
            s.expect("(")
            e = _parse_expr(s, system, exact)
            s.expect(")")
            return alg_adj(e)
        if t.text == "E":
            s.next()
            s.expect("(")
            e = _parse_expr(s, system, exact)
            s.expect(")")
            return from_func(expectation(e))
        if t.text in ("f", "sh", "tp", "u"):
            f = _parse_func_literal(s, system, exact)
            return from_func(f)
    raise ParseError(
        f"found {t.text!r}" if t.kind != "end" else "unexpected end of input",
        t.line, t.col,
        expected=("scalar", "function literal", "d", "adj", "E", "("),
    )


def _parse_func_literal(s: _Stream, system, exact) -> Func:
    t = s.expect_name("f", "sh", "tp", "u")
    if t.text == "u":
        from .union import UnionSystem
        if not isinstance(system, UnionSystem):
            raise ParseError("union literal on a non-union system", t.line, t.col)
        s.expect("[")
        parts = []
        for i, comp in enumerate(system.components):
            if i:
                s.expect(";")
            if s.peek().kind == "num" and s.peek().text == "0" and \
                    s.toks[s.pos + 1].kind in (";", "]"):
                s.next()
                parts.append(zero_func(comp, exact))
            else:
                parts.append(_parse_func_literal(s, comp, exact))
        s.expect("]")
        return Func(system, tuple(parts))
    if t.text == "f":
        from .finite import FiniteSystem
        if not isinstance(system, FiniteSystem):
            raise ParseError("finite literal on a non-finite system", t.line, t.col)
        entries = _parse_braced(s, lambda: _parse_entry(s, exact))
        vals = [sc.zero_like(exact)] * system.size
        for k, v in entries:
            if not 0 <= k < system.size:
                raise ParseError(f"point {k} outside the system", t.line, t.col)
            vals[k] = v
        return Func(system, tuple(vals))
    if t.text == "sh":
        from .shift import ShiftSystem
        if not isinstance(system, ShiftSystem):
            raise ParseError("shift literal on a non-shift system", t.line, t.col)
        s.expect("{")
        s.expect_name("inf")
        s.expect(":")
        v_inf = _parse_scalar(s, exact)
        exc = {}
        while s.accept(","):
            k = int(_parse_number(s))
            s.expect(":")
            exc[k] = _parse_scalar(s, exact)
        s.expect("}")
        return Func(system, (v_inf, exc))
    from .rotation import RotationSystem
    if not isinstance(system, RotationSystem):
        raise ParseError("trig literal on a non-rotation system", t.line, t.col)
    return Func(system, dict(_parse_braced(s, lambda: _parse_entry(s, False))))


def _parse_braced(s: _Stream, item) -> list:
    """'{' item (',' item)* '}', or '{}'."""
    s.expect("{")
    out = []
    if not s.accept("}"):
        out = [item()]
        while s.accept(","):
            out.append(item())
        s.expect("}")
    return out


def _parse_entry(s: _Stream, exact):
    k = int(_parse_number(s))
    s.expect(":")
    return k, _parse_scalar(s, exact)


# ---------------------------------------------------------------------------
# Closed set literals


def parse_set(text: str, system):
    s = _Stream(text)
    return _done(s, _parse_set(s, system), "set")


def _parse_set(s: _Stream, system):
    t = s.peek()
    if t.kind == "name" and t.text == "all":
        s.next()
        return whole_space(system)
    if t.kind == "name" and t.text == "empty":
        s.next()
        return empty_set(system)
    if t.kind == "name" and t.text == "circle":
        from .rotation import RotationSystem
        if not isinstance(system, RotationSystem):
            raise ParseError("circle literal on a non-rotation system", t.line, t.col)
        s.next()
        return CircleSet(True)
    if t.kind == "name" and t.text == "co":
        from .shift import ShiftSystem
        if not isinstance(system, ShiftSystem):
            raise ParseError("cofinite literal on a non-shift system", t.line, t.col)
        s.next()
        return ShiftSet(frozenset(_parse_braced(s, lambda: int(_parse_number(s)))), True, True)
    if t.kind == "name" and t.text == "u":
        from .union import UnionSystem
        if not isinstance(system, UnionSystem):
            raise ParseError("union literal on a non-union system", t.line, t.col)
        s.next()
        s.expect("[")
        parts = []
        for i, comp in enumerate(system.components):
            if i:
                s.expect(";")
            parts.append(_parse_set(s, comp))
        s.expect("]")
        return UnionSet(tuple(parts))
    if t.kind == "{":  # the closed set of the listed points of a leaf system
        try:
            leaf = system.leaf(())
        except SystemMismatchError:
            raise ParseError("brace set literal on a union system needs u[...]",
                             t.line, t.col) from None
        coords = _parse_braced(s, lambda: _parse_coord(s, leaf))
        for c in coords:
            try:
                leaf.check_coord(c)
            except SystemMismatchError:
                raise ParseError(f"point {c} outside the system", t.line, t.col) from None
        return leaf.points_to_set([Point(c) for c in coords])
    raise ParseError(
        f"found {t.text!r}" if t.kind != "end" else "unexpected end of input",
        t.line, t.col, expected=("all", "empty", "circle", "co", "u", "{"),
    )


# ---------------------------------------------------------------------------
# Ideal literals


def parse_ideal(text: str, system, exact: bool = False):
    s = _Stream(text)
    return _done(s, _parse_ideal(s, system, exact), "ideal")


def _parse_ideal(s: _Stream, system, exact):
    from . import reps_ideals as ri
    t = s.expect_name("Px", "Pxl", "Qx", "K", "meet", "gen")
    s.expect("(")
    if t.text == "Px":
        x = _parse_point(s, system)
        s.expect(")")
        return ri.canonical_px(system, x)
    if t.text == "Pxl":
        x = _parse_point(s, system)
        s.expect(",")
        lam = _parse_scalar(s, exact)
        s.expect(")")
        return ri.canonical_px_lambda(system, x, lam)
    if t.text == "Qx":
        x = _parse_point(s, system)
        s.expect(")")
        return ri.canonical_qx(system, x)
    if t.text == "K":
        S = _parse_set(s, system)
        s.expect(")")
        return ri.kernel_ideal(system, S)
    if t.text == "meet":  # meet() is the meet of no ideals: the whole algebra
        parts = [] if s.peek().kind == ")" else [_parse_ideal(s, system, exact)]
        while s.accept(","):
            parts.append(_parse_ideal(s, system, exact))
        s.expect(")")
        return ri.intersection_ideal(system, parts)
    gens = [_parse_expr(s, system, exact)]
    while s.accept(","):
        gens.append(_parse_expr(s, system, exact))
    s.expect(")")
    return ri.generated_ideal(system, gens)


# ---------------------------------------------------------------------------
# Torus subset literals


def parse_torus(text: str, system, exact: bool = False):
    from .transform import TorusEntry, TorusSubset
    s = _Stream(text)
    s.expect_name("t")
    s.expect("[")
    entries = []
    if not s.accept("]"):
        while True:
            x = _parse_point(s, system)
            closure = s.accept("*") is not None
            s.expect(":")
            entries.append(TorusEntry(x, _parse_lamdesc(s, exact), use_closure=closure))
            if s.accept("]"):
                break
            s.expect(";")
    return _done(s, TorusSubset(system, tuple(entries)), "torus set")


def _parse_lamdesc(s: _Stream, exact):
    from .transform import FiniteRoots, FullCircle, PolynomialRoots
    t = s.expect_name("full", "roots", "poly")
    if t.text == "full":
        return FullCircle()
    vals = [complex(v) for v in _parse_braced(s, lambda: _parse_scalar(s, False))]
    if t.text == "roots":
        return FiniteRoots(tuple(vals))
    return PolynomialRoots(tuple(vals))


# ---------------------------------------------------------------------------
# Rendering: each value's repr is its literal in the grammars above

render_point = render_func = render_element = render_set = render_ideal = repr
render_lamdesc = render_torus = repr
