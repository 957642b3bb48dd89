"""Command line front end.

Every invocation loads a system config, parses the operands with the
config's numeric mode, runs one operation, and prints either human-readable
lines or structured one-record-per-line output.  Numeric output is printed
with 12 significant digits; identical inputs and seed give byte-identical
output.

Exit codes: 0 ok, 1 property failure, 2 usage, 3 parse error,
4 unsupported query.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .algebra import alg_adj, alg_mul, alg_norm, check_finite, expectation, fourier_eval
from .dynsys import is_free, is_minimal, is_periodic
from .errors import CrossedProdError, ParseError, UnsupportedQueryError
from .parsing import (
    MAX_CHECKS, MAX_ENTRIES, MAX_ROUNDS, SystemConfig, parse_config, parse_elem, parse_ideal,
    parse_point, parse_scalar_text, parse_set, parse_torus,
)
from .scalars import check_finite_scalar, check_tolerance, fmt_real, render_scalar

DEFAULT_TOL_ENV = "CROSSEDPROD_TOL"
# The keys of checks.SUITES, written out so that building the parser does
# not load the suites; a test keeps the two lists equal.
SUITE_NAMES = ("algebra.axioms", "dual.average", "expectation.laws", "galois.HK",
               "galois.ZI", "galois.hk", "inclusion.table", "reps.kernel")


class _Output:
    """Collects result lines; in records mode each result becomes one JSON
    object with a stable field order."""

    def __init__(self, records: bool, operation: str, inputs: dict):
        self.records = records
        self.operation = operation
        self.lines: list[str] = []
        if records:  # only records print the digest; a human-mode call loads neither module
            import hashlib
            import json
            self.dumps = json.dumps
            digest_src = json.dumps(inputs, sort_keys=True)
            self.digest = hashlib.sha256(digest_src.encode()).hexdigest()[:12]

    def add(self, outcome: str, witnesses: tuple = ()):
        if self.records:
            rec = {
                "operation": self.operation,
                "inputs_digest": self.digest,
                "outcome": outcome,
                "witnesses": list(witnesses),
            }
            self.lines.append(self.dumps(rec))
        else:
            self.lines.append(outcome)
            for w in witnesses:
                self.lines.append(f"  witness: {w}")

    def flush(self):
        for line in self.lines:
            print(line)


def _load_config(path: str) -> SystemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _tol(args, cfg: SystemConfig) -> float:
    if args.tol is not None:
        return check_tolerance(args.tol, "--tol")
    env = os.environ.get(DEFAULT_TOL_ENV)
    if env:
        return check_tolerance(env, f"${DEFAULT_TOL_ENV}")
    return cfg.tolerance


def _bound_work(what: str, estimate: int, unit: str, bound: int) -> None:
    """Refuse work whose estimate, made before any of it is done, is above bound."""
    if estimate > bound:
        raise ValueError(f"{what} is too costly: about {estimate} {unit}, "
                         f"above the bound of {bound}")


def _set_count(rep) -> str:
    """A minimality report's invariant closed set count, or "infinite"."""
    n = rep.invariant_closed_set_count
    return "infinite" if n is None else str(n)


def _add_report(out: _Output, r) -> int:
    """A check report's line, its failure lines as witnesses; its exit code."""
    verdict = "FAIL" if not r.ok else "vacuous" if r.checked == 0 else "ok"
    out.add(f"{r.name}: {verdict} ({r.checked} checks)", r.failures)
    return 0 if r.ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crossedprod",
        description="crossed product algebra toolkit for desk-scale dynamical systems",
    )
    ap.add_argument("--config", required=True, help="system config file")
    ap.add_argument("--seed", type=int, default=1, help="seed for randomized suites")
    ap.add_argument("--tol", type=float, default=None,
                    help=f"numeric tolerance (default from config or ${DEFAULT_TOL_ENV})")
    ap.add_argument("--records", action="store_true",
                    help="structured one-record-per-line output")
    sub = ap.add_subparsers(dest="command", required=True)

    def cmd(name, **kw):
        return sub.add_parser(name, **kw)

    p = cmd("eval", help="evaluate an element expression to canonical form")
    p.add_argument("--elem", required=True)
    p = cmd("mul", help="product of two elements")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p = cmd("adj", help="adjoint of an element")
    p.add_argument("--elem", required=True)
    p = cmd("norm", help="algebra norm of an element")
    p.add_argument("--elem", required=True)
    p = cmd("e0", help="zero-index coefficient of an element")
    p.add_argument("--elem", required=True)
    p = cmd("transform", help="transform value at a point and torus parameter")
    p.add_argument("--elem", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--lam", required=True)
    p = cmd("rep", help="representation matrix at a point")
    p.add_argument("--elem", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--lam", default=None)
    p.add_argument("--window", type=int, default=None)
    p = cmd("member", help="ideal membership test")
    p.add_argument("--ideal", required=True)
    p.add_argument("--elem", required=True)
    p = cmd("inclusion", help="ideal containment test")
    p.add_argument("--i1", required=True)
    p.add_argument("--i2", required=True)
    p = cmd("behaviour", help="well/badly behaved/plain classification")
    p.add_argument("--ideal", required=True)
    p = cmd("hull", help="hull of an ideal")
    p.add_argument("--ideal", required=True)
    p = cmd("kernel", help="kernel ideal of an invariant closed set")
    p.add_argument("--set", required=True)
    p = cmd("decompose", help="canonical intersection decomposition of a kernel ideal")
    p.add_argument("--set", required=True)
    p = cmd("zeros", help="zero set of an ideal in the product space")
    p.add_argument("--ideal", required=True)
    p = cmd("isynth", help="synthesized ideal of a product-space subset")
    p.add_argument("--torus", required=True)
    p = cmd("zi", help="synthesized closure of an ideal")
    p.add_argument("--ideal", required=True)
    p = cmd("avg", help="character averaging toward the zero coefficient")
    p.add_argument("--elem", required=True)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--max-rounds", type=int, default=14)
    p = cmd("galois", help="abstract hull-kernel law checks")
    p.add_argument("--instantiation", choices=["hk", "HK", "ZI"], required=True)
    p.add_argument("--samples", type=int, default=24)
    p = cmd("check", help="run a named property suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p = cmd("minimality", help="invariant closed set census and minimality")
    p = cmd("report", help="summary report for the configured system")
    return ap


def run_command(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0,) else 0
    try:
        cfg = _load_config(args.config)
        return _dispatch(args, cfg)
    except ParseError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return 3
    except UnsupportedQueryError as ex:
        print(f"unsupported: {ex}", file=sys.stderr)
        return 4
    except (CrossedProdError, OSError, ValueError, OverflowError, RecursionError) as ex:
        print(f"error: {ex}", file=sys.stderr)  # recursion: a value nested too deeply to print
        return 2


def _dispatch(args, cfg: SystemConfig) -> int:
    system = cfg.system
    exact = cfg.mode == "exact"
    tol = _tol(args, cfg)
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("config", "records") and v is not None}
    inputs["mode"] = cfg.mode
    out = _Output(args.records, args.command, inputs)
    code = 0

    # each branch imports the layers it calls, so a call loads only those
    if args.command == "eval":
        a = parse_elem(args.elem, system, exact)
        out.add(repr(a))
    elif args.command == "mul":
        a = parse_elem(args.a, system, exact)
        b = parse_elem(args.b, system, exact)
        out.add(repr(check_finite(alg_mul(a, b))))
    elif args.command == "adj":
        out.add(repr(alg_adj(parse_elem(args.elem, system, exact))))
    elif args.command == "norm":
        out.add(fmt_real(check_finite_scalar(alg_norm(parse_elem(args.elem, system, exact)))))
    elif args.command == "e0":
        out.add(repr(expectation(parse_elem(args.elem, system, exact))))
    elif args.command == "transform":
        a = parse_elem(args.elem, system, exact)
        x = parse_point(args.point, system)
        lam = parse_scalar_text(args.lam, exact)
        out.add(render_scalar(check_finite_scalar(fourier_eval(a, x, lam))))
    elif args.command == "rep":
        from .reps_ideals import rep_aperiodic_window, rep_periodic
        a = parse_elem(args.elem, system, exact)
        x = parse_point(args.point, system)
        if is_periodic(system, x):
            if args.lam is None:
                raise UnsupportedQueryError("periodic points need --lam")
            M = rep_periodic(system, x, parse_scalar_text(args.lam, exact), a)
        else:
            W = args.window if args.window is not None else a.support_radius()
            if W > 0:  # a negative window is the library's refusal
                _bound_work(f"window {W}", (2 * W + 1) ** 2 * max(1, len(a.coeffs)),
                            "matrix entries times coefficients", MAX_ENTRIES)
            M = rep_aperiodic_window(system, x, W, a)
        for row in M.entries:
            out.add("[" + ", ".join(render_scalar(check_finite_scalar(v)) for v in row) + "]")
    elif args.command == "member":
        from .reps_ideals import ideal_member
        I = parse_ideal(args.ideal, system, exact)
        a = parse_elem(args.elem, system, exact)
        out.add("true" if ideal_member(I, a, tol) else "false")
    elif args.command == "inclusion":
        from .transform import ideal_leq
        I = parse_ideal(args.i1, system, exact)
        J = parse_ideal(args.i2, system, exact)
        out.add("true" if ideal_leq(I, J, tol) else "false")
    elif args.command == "behaviour":
        from .reps_ideals import ideal_behaviour
        I = parse_ideal(args.ideal, system, exact)
        rep = ideal_behaviour(I, tol)
        kinds = {"well": "well behaved", "bad": "badly behaved", "plain": "plain"}
        wit = []
        if rep.escape_function is not None:
            wit.append(f"escaping zero coefficient {rep.escape_function!r}")
        if rep.escape_element is not None:
            wit.append(f"member {rep.escape_element!r}")
        out.add(kinds[rep.kind], tuple(wit))
    elif args.command == "hull":
        from .hullkernel import hull
        I = parse_ideal(args.ideal, system, exact)
        h = hull(I, tol)
        out.add(repr(h.subset), tuple(h.provenance))
    elif args.command == "kernel":
        from .reps_ideals import kernel_ideal
        S = parse_set(args.set, system)
        out.add(repr(kernel_ideal(system, S)))
    elif args.command == "decompose":
        from .hullkernel import decompose_as_intersection
        from .reps_ideals import intersection_ideal
        S = parse_set(args.set, system)
        out.add(repr(intersection_ideal(system, decompose_as_intersection(system, S))))
    elif args.command == "zeros":
        from .transform import zeros_nonempty_report
        I = parse_ideal(args.ideal, system, exact)
        rep = zeros_nonempty_report(I, tol)
        out.add(repr(rep.zeros))
        if rep.nonempty:
            x, mu = rep.witness
            out.add("nonempty", (f"point {x!r}", f"parameter {render_scalar(mu)}", rep.note))
        else:
            out.add("empty", (rep.note,))
    elif args.command == "isynth":
        from .transform import ideal_of_torus_set
        T = parse_torus(args.torus, system, exact, tol)
        out.add(repr(ideal_of_torus_set(T, tol)))
    elif args.command == "zi":
        from .transform import zi_closure
        I = parse_ideal(args.ideal, system, exact)
        out.add(repr(zi_closure(I, tol)))
    elif args.command == "avg":
        eps = args.epsilon
        if not 0 < eps < math.inf:
            raise ValueError(f"--epsilon must be a finite number > 0, not {fmt_real(eps)}")
        if args.max_rounds < 0:
            raise ValueError(f"--max-rounds must be at least 0, not {args.max_rounds}")
        if args.max_rounds > MAX_ROUNDS:
            raise ValueError(f"--max-rounds {args.max_rounds} is above the bound of {MAX_ROUNDS}")
        from .synthesis import drive_to_E
        a = parse_elem(args.elem, system, exact)
        rep = drive_to_E(a, args.epsilon, args.max_rounds)
        for order, residual in rep.rounds:
            out.add(f"round order={order} residual={fmt_real(check_finite_scalar(residual))}")
        out.add("reached" if rep.reached else "not reached",
                tuple(f"damping[{n}]={fmt_real(check_finite_scalar(v))}"
                      for n, v in sorted(rep.damping.items())))
    elif args.command == "galois":
        n = args.samples
        if n < 0:
            raise ValueError(f"--samples must be at least 0, not {n}")
        _bound_work(f"--samples {n}", 5 * n * n // 2, "checks", MAX_CHECKS)
        from .checks import suite_galois
        code = _add_report(out, suite_galois(system, args.instantiation, args.seed, args.samples))
    elif args.command == "check":
        from .checks import SUITES
        code = _add_report(out, SUITES[args.suite](system, exact, args.seed, tol))
    elif args.command == "minimality":
        from .hullkernel import minimality_dichotomy
        rep = minimality_dichotomy(system)
        out.add(f"minimal={'true' if rep.minimal else 'false'} "
                f"invariant_closed_sets={_set_count(rep)}")
        if rep.sets is not None:
            for S in rep.sets:
                out.add(f"  set {S!r}")
    elif args.command == "report":
        from .hullkernel import minimality_dichotomy
        from .synthesis import dichotomy_report
        free = is_free(system)
        out.add(f"free={'true' if free else 'false'} minimal={'true' if is_minimal(system) else 'false'}")
        out.add(f"well_behaved_closed_ideals={_set_count(minimality_dichotomy(system))}")
        drep = dichotomy_report(system)
        if not drep.free:
            out.add("dichotomy: not free",
                    (f"periodic point {drep.witness_point!r}",
                     f"escaping coefficient {drep.escape_function!r}"))
        else:
            note = drep.note
            if drep.averaging is not None:
                residual = check_finite_scalar(drep.averaging.final_residual)
                note += f"; averaging residual {fmt_real(residual)}"
            out.add("dichotomy: free", (note,))
    out.flush()
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
