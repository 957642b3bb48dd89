"""Workload ``cli-golden``: the 25 golden CLI cases, each a cold process.

The case matrix is ``tests/cli_cases.py`` and the expected bytes are
``tests/golden/<name>.txt``, both read in place.  A round runs every case
once, in an order drawn from the seed; stdout and the exit code must match
the golden file byte for byte.  Only one child process runs at a time.
"""

from __future__ import annotations

import importlib.util
import json
import random
import subprocess
import sys
from time import perf_counter

from common import BENCH_DIR, CHILD_TIMEOUT_S, ROOT, TESTS, Op, child_env


def load_cases() -> list:
    spec = importlib.util.spec_from_file_location("cli_cases", TESTS / "cli_cases.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return list(mod.CASES)


def argv_for(cfg: str, tail: list) -> list:
    """The command line the golden tests use, with the config path relative
    to the checkout root."""
    pre = ["--config", f"tests/data/{cfg}", "--seed", "1"]
    if tail and tail[0] == "--records":
        return pre + ["--records"] + tail[1:]
    return pre + tail


def run_cold(argv: list) -> tuple:
    """One cold ``python -m crossedprod.cli`` process: (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "crossedprod.cli", *argv], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout


def run_traced(argv: list) -> dict:
    """The same invocation through ``cli_child.py``, which times interpreter
    start, imports and ``run_command`` and traces the layers."""
    spawn = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "cli_child.py"), repr(spawn), *argv], cwd=ROOT,
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.decode("utf-8").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"traced CLI child failed with code {proc.returncode}")
    return json.loads(lines[-1])


def _verify(want: bytes):
    return lambda got: got == (0, want)


def build(seed: int, traced: bool = False) -> list:
    """One op per case, in the seeded order.  Traced ops answer the child's
    record; their ``render`` keeps the (code, stdout) pair for the check."""
    cases = load_cases()
    order = list(range(len(cases)))
    random.Random(seed).shuffle(order)
    ops = []
    for i in order:
        name, cfg, tail = cases[i]
        want = (TESTS / "golden" / f"{name}.txt").read_bytes()
        argv = argv_for(cfg, tail)
        if traced:
            ops.append(Op(name, lambda argv=argv: run_traced(argv),
                          lambda rec: (rec["code"], rec["out"].encode("utf-8")),
                          _verify(want)))
        else:
            ops.append(Op(name, lambda argv=argv: run_cold(argv), tuple, _verify(want)))
    return ops
