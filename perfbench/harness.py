"""The closed-loop measuring core shared by the untraced and traced runs."""

from __future__ import annotations

import resource
import subprocess
import sys
from collections import Counter
from time import perf_counter

from common import BENCH_DIR, CHILD_TIMEOUT_S, Raised, child_env, median, percentile

WORKLOADS = ("cli-golden", "exact-oracles", "float-transform")
MIN_OPS = 100
SETUP_SAMPLES = 5

END_TO_END_UNITS = {"setup_s": "s", "op_ms": "ms", "op_p90_ms": "ms",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def load(name: str):
    if name == "cli-golden":
        import cli_golden as w
    elif name == "exact-oracles":
        import exact_oracles as w
    else:
        import float_transform as w
    return w


def set_up(name: str, seed: int):
    """Import, generate inputs and warm up: one cold CLI call for
    cli-golden, one whole round otherwise."""
    w = load(name)
    ops = w.build(seed)
    for op in ops[:1] if name == "cli-golden" else ops:
        op.call()
    return w, ops


def setup_once(name: str, seed: int) -> float:
    """Wall time of a fresh interpreter that only sets up."""
    t0 = perf_counter()
    subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                    "--seed", str(seed), "--setup-only"],
                   env=child_env(), check=True, timeout=CHILD_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - t0


class Checker:
    """Judges answers after the clock stops, round by round, so that no
    round's answers stay alive into the next.  A verdict is reused for an
    answer that renders the same as one already judged."""

    def __init__(self, ops):
        self.ops = ops
        self.verdicts: dict = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: Counter = Counter()

    def judge(self, results) -> None:
        for i, r in results:
            op = self.ops[i]
            ok = False
            if not isinstance(r, Raised):
                try:
                    key = (i, op.render(r))
                    ok = self.verdicts.get(key)
                    if ok is None:
                        ok = self.verdicts[key] = bool(op.verify(key[1]))
                except Exception:  # an answer the checker cannot read is wrong
                    ok = False
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures[op.label] += 1
                self.correct = self.correct and op.kept

    def merge(self, other: "Checker") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.correct = self.correct and other.correct
        self.failures.update(other.failures)


def run_round(ops, checker: Checker, latencies: list | None = None) -> float:
    """One whole round, one operation at a time; returns its duration.
    The answers are judged once the round is over."""
    results = []
    start = perf_counter()
    for i, op in enumerate(ops):
        t0 = perf_counter()
        try:
            r = op.call()
        except Exception as ex:  # a failed operation; counted, never fatal
            r = Raised(ex)
        t1 = perf_counter()
        if latencies is not None:
            latencies.append((i, t1 - t0))
        results.append((i, r))
    took = perf_counter() - start
    checker.judge(results)
    return took


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    """The measured loop.  The set-up samples are taken between rounds,
    spread evenly over the loop, so that their median does not hang on
    the machine's speed at one moment."""
    _, ops = set_up(name, seed)
    checker = Checker(ops)
    latencies: list = []
    setups = [setup_once(name, seed)]
    elapsed = 0.0
    rounds = 0
    while elapsed < seconds or len(latencies) < MIN_OPS:
        elapsed += run_round(ops, checker, latencies)
        rounds += 1
        if len(setups) < SETUP_SAMPLES and elapsed >= len(setups) * seconds / (SETUP_SAMPLES - 1):
            setups.append(setup_once(name, seed))
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_once(name, seed))
    setup_s = median(setups)
    who = resource.RUSAGE_CHILDREN if name == "cli-golden" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    times = [dt for _, dt in latencies]
    by_label: dict = {}
    for i, dt in latencies:
        by_label.setdefault(ops[i].label, []).append(dt)
    metrics = {
        "setup_s": setup_s,
        "op_ms": median(times) * 1e3,
        "op_p90_ms": percentile(times, 90) * 1e3,
        "ops_per_s": len(times) / elapsed,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    detail = {"rounds": rounds, "ops_per_round": len(ops), "failures": dict(checker.failures),
              "op_median_ms": {k: median(v) * 1e3 for k, v in sorted(by_label.items())}}
    detail["setup_samples_s"] = setups
    return result(checker, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, detail)


def result(checker: Checker, metrics: dict, detail: dict) -> dict:
    """Result object; ``metrics`` maps name -> (value, unit)."""
    return {"correct": checker.correct, "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "detail": detail}
