"""The benchmark's own tests.

    python3 -m pytest -q perfbench/test_bench.py

Every oracle rejects a wrong answer of the right shape, every workload
runs a round on two seeds with no failure outside the kept-fault set, and
the result line carries every metric that BENCHMARK.json names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from common import ROOT, require_program

require_program()

import cli_golden  # noqa: E402
import exact_oracles  # noqa: E402
import float_transform  # noqa: E402
import model as M  # noqa: E402
from harness import Checker, run_round  # noqa: E402
from lib import Lib  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Corrupting a correct answer while keeping its shape


def element_text(msys, a: dict) -> str:
    terms = []
    for n in sorted(a):
        lit = M.func_text(msys, a[n])
        terms.append(lit if n == 0 else f"{lit}*d" if n == 1 else f"{lit}*d^{n}")
    return " + ".join(terms) or "0"


def bump(msys, f):
    """The same function with one value moved by 1."""
    if isinstance(msys, M.Union):
        return (bump(msys.components[0], f[0]),) + tuple(f[1:])
    if msys is M.SHIFT:
        return M.shift_func(f[0] + M.GQ(1), f[1])
    return (f[0] + M.GQ(1),) + tuple(f[1:])


def corrupt_exact(op, got, msys):
    """Wrong answers of the right shape for an exact-oracles answer."""
    kind = op.label.split("/")[0]
    if isinstance(got, bool):
        return [not got]
    if isinstance(got, float):
        return [got * (1 + 1e-9) + 1e-12]
    if kind in ("alg_mul", "alg_adj"):
        a = M.parse_element(msys, got)
        n = min(a)
        wrong = dict(a)
        wrong[n] = bump(msys, a[n])
        dropped = {k: v for k, v in a.items() if k != n}
        return [element_text(msys, wrong), element_text(msys, dropped)]
    if kind.startswith("rep_"):
        rows = [list(r) for r in got]
        rows[0][0] = M.scalar_text(M.parse_scalar(rows[0][0]) + M.GQ(0, 1))
        return [tuple(tuple(r) for r in rows)]
    if kind == "hull":
        return ["{}" if got != "{}" else "{0}", got.replace("}", ",7}", 1)]
    if kind == "ideal_behaviour":  # wrong witnesses: see the test below
        k, f, a = got
        return [({"well": "bad", "bad": "plain", "plain": "well"}[k], f, a)]
    raise AssertionError(f"no corruption for {op.label}")


SYSTEMS = {"c3": exact_oracles.C3, "p11": exact_oracles.P11, "c8": exact_oracles.C8,
           "shift": exact_oracles.SH, "union": exact_oracles.U}


def test_exact_oracles_reject_corrupted_answers():
    kinds = set()
    for op in exact_oracles.build(3):
        got = op.render(op.call())
        assert op.verify(got), op.label
        kind, _, rest = op.label.partition("/")
        msys = SYSTEMS.get(rest.partition("/")[0])
        for wrong in corrupt_exact(op, got, msys):
            assert not op.verify(wrong), op.label
        kinds.add(kind)
    assert {"alg_mul", "alg_adj", "alg_norm", "ideal_member", "rep_periodic",
            "rep_aperiodic_window", "ideal_behaviour", "hull"} <= kinds


def test_behaviour_oracle_rejects_bad_witnesses():
    U = exact_oracles.U
    h = ("meet", (("Px", (0, 0)), ("Pxl", (1, 0), M.circle_point(Fraction(1, 2)))))
    I = exact_oracles.lib_handle(Lib(exact=True), U, h)
    op = exact_oracles._behaviour_op(U, h, I)
    kind, f, a = op.render(op.call())
    assert kind == "plain" and op.verify((kind, f, a))
    escape = M.parse_func(U, f)
    # the escape function alone is not a member of the meet
    assert not op.verify((kind, f, element_text(U, {0: escape})))
    # the zero coefficient of the member is not the escape function
    assert not op.verify((kind, M.func_text(U, bump(U, escape)), a))


def test_planted_root_check_rejects_spurious_and_missing_roots():
    ops = float_transform.build(5)
    checked = 0
    for op in (op for op in ops if op.label == "zeros_of_ideal"):
        got = op.render(op.call())
        assert op.verify(got)
        for idx, (x, closure, kind, vals) in enumerate(got):
            if kind == "FullCircle":
                continue
            roots = float_transform._unit_roots(kind, vals)
            extra = roots + [roots[0] * float_transform.unit(0.5)]
            for wrong_roots in (extra, roots[1:]):
                wrong = list(got)
                wrong[idx] = (x, closure, "FiniteRoots", tuple(wrong_roots))
                assert not op.verify(tuple(wrong))
            missing_orbit = got[:idx] + got[idx + 1:]
            assert not op.verify(missing_orbit)
            checked += 1
    assert checked >= 8


def test_float_oracles_reject_corrupted_answers():
    ops = float_transform.build(6)
    seen = set()
    for op in ops:
        if op.kept:
            continue
        got = op.render(op.call())
        assert op.verify(got), op.label
        kind = op.label.split("/")[0]
        seen.add(kind)
        if isinstance(got, bool):
            wrong = [not got]
        elif kind in ("zi_closure", "ideal_of_torus_set"):
            name, x, lam = got[-1]
            wrong = [got[:-1], got + got[-1:]]  # a part missing, a part twice
            if lam is not None:
                wrong.append(got[:-1] + ((name, x, lam * float_transform.unit(0.3)),))
        elif kind == "f_zero_set":
            turns = float_transform.parse_circle(got)
            wrong = ["{" + ",".join(repr(t) for t in turns[1:]) + "}",
                     "{" + ",".join(repr((t + 0.01) % 1) for t in turns) + "}", "circle"]
        elif kind == "hull":
            wrong = ["circle", "{0.25}"]
        elif kind == "drive_to_E":
            rounds, reached, damping = got
            bent = tuple((o, r * (1 + 1e-4)) for o, r in rounds)
            wrong = [(bent, reached, damping), (rounds, not reached, damping),
                     (rounds[:-1], reached, damping)]
        elif kind == "zeros_of_ideal":
            continue  # covered by the planted-root test
        else:
            raise AssertionError(f"no corruption for {op.label}")
        for w in wrong:
            assert not op.verify(w), op.label
    assert {"zi_closure", "ideal_of_torus_set", "tilde_member", "ideal_member_via_S",
            "ideal_leq", "f_zero_set", "hull", "drive_to_E"} <= seen


def test_cli_oracle_rejects_wrong_bytes_and_codes():
    op = cli_golden.build(1)[0]
    code, out = op.render(op.call())
    assert op.verify((code, out))
    assert not op.verify((code, out + b" "))
    assert not op.verify((code, out.replace(b"\n", b"\r\n", 1) if b"\n" in out else out + b"\n"))
    assert not op.verify((1, out))


# ---------------------------------------------------------------------------
# Whole rounds on two seeds


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("module,kept", [(exact_oracles, 0), (float_transform, 4),
                                         (cli_golden, 0)])
def test_round_has_no_failure_outside_kept_set(module, kept, seed):
    ops = module.build(seed)
    checker = Checker(ops)
    run_round(ops, checker)
    assert checker.attempted == len(ops)
    assert checker.correct, dict(checker.failures)
    assert checker.failed == kept == sum(op.kept for op in ops)


# ---------------------------------------------------------------------------
# The result line


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600)
    return proc


@pytest.mark.parametrize("workload,trace", [("float-transform", 0), ("float-transform", 1),
                                            ("cli-golden", 1)])
def test_result_line_carries_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr.decode()
    res = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 100
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(res["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "exact-oracles", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == b""
