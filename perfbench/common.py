"""Paths, statistics and small helpers shared by the benchmark's modules."""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

CHILD_TIMEOUT_S = 60  # any one child interpreter

# Every module of the library under measurement, for the source-size metrics.
SRC_MODULES = (
    "algebra", "checks", "cli", "dynsys", "errors", "funcspace", "galois",
    "hullkernel", "parsing", "reps_ideals", "sampling", "scalars",
    "synthesis", "transform",
)


class MissingProgram(RuntimeError):
    """The checkout lacks the library or its test data."""


def require_program() -> None:
    """Put the checkout's ``src`` first on the import path, or fail loudly."""
    if not (SRC / "crossedprod" / "__init__.py").is_file():
        raise MissingProgram(f"no crossedprod package under {SRC}")
    if not (TESTS / "cli_cases.py").is_file():
        raise MissingProgram(f"no CLI case matrix under {TESTS}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: the checkout's library first,
    and no tolerance override that would change the program's answers."""
    env = dict(os.environ)
    env.pop("CROSSEDPROD_TOL", None)
    env.pop("CROSSEDPROD_REGEN", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def median(xs):
    s = sorted(xs)
    n = len(s)
    if n == 0:
        return math.nan
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


def percentile(xs, q: float):
    """Linear-interpolated q-th percentile (0..100)."""
    s = sorted(xs)
    if not s:
        return math.nan
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def source_lines() -> dict:
    """Line counts of the library's modules, keyed ``src.lines[.<module>]``."""
    out = {}
    total = 0
    for path in sorted((SRC / "crossedprod").glob("*.py")):
        with open(path, "rb") as fh:
            n = sum(1 for _ in fh)
        total += n
        if path.stem in SRC_MODULES:
            out[f"src.lines.{path.stem}"] = n
    for m in SRC_MODULES:
        out.setdefault(f"src.lines.{m}", 0)
    out["src.lines"] = total
    return out


class Op:
    """One benchmark operation.

    ``call`` runs it and returns the program's answer.  After the clock
    stops, ``render`` turns the answer into a hashable form and ``verify``
    judges that form against the benchmark's own reference.  ``kept`` marks
    an operation that fails every time because of a known program fault.
    """

    __slots__ = ("label", "call", "render", "verify", "kept")

    def __init__(self, label, call, render, verify, kept=False):
        self.label = label
        self.call = call
        self.render = render
        self.verify = verify
        self.kept = kept


class Raised:
    """Stands in for the answer of an operation that raised."""

    __slots__ = ("error",)

    def __init__(self, error):
        self.error = error
