"""The ``--trace 1`` run: per-layer metrics.

The workload's rounds run alternately untraced and traced, so the traced
rounds give per-layer self time and calls and the pair gives the tracing
overhead.  A round run from cold caches gives the cache hit ratios.  Then
come the fixed-size probes, the CLI start-up split (from the traced rounds
on cli-golden, from one traced pass over the golden cases elsewhere) and
the source size.  End-to-end figures never come from this run.
"""

from __future__ import annotations

import cli_golden
from common import median, source_lines
from harness import MIN_OPS, Checker, result, run_round, set_up
from probes import PROBE_UNITS, run_probes
from tracing import LAYERS, CACHES, Tracer, cache_counts, clear_caches, hit_ratios

CLI_TIMINGS = ("interpreter_ms", "import_ms", "numpy_import_ms", "run_command_ms")


def _alternate(seconds: float, min_each: int, untraced, traced) -> tuple:
    """Run untraced and traced rounds in turn until ``seconds`` of rounds
    have passed and each kind has run ``min_each`` times; their durations.
    Callers choose ``min_each`` so that the run attempts at least MIN_OPS."""
    times = {False: [], True: []}
    while True:
        times[False].append(untraced())
        times[True].append(traced())
        if sum(times[False]) + sum(times[True]) >= seconds and len(times[True]) >= min_each:
            return times[False], times[True]


def _pairs(ops, least: int) -> int:
    return max(least, -(-MIN_OPS // (2 * len(ops))))


def _cli_records(records: list) -> dict:
    """cli.* start-up split: medians over traced invocations (0 if none ran)."""
    return {f"cli.{k}": median([r[k] for r in records]) if records else 0.0
            for k in CLI_TIMINGS}


def _recording(ops, records: list) -> None:
    """Make each traced CLI op keep its child's record."""
    for op in ops:
        call = op.call
        op.call = lambda call=call: records.append(call()) or records[-1]


def _inproc(name: str, seed: int, seconds: float) -> tuple:
    w, ops = set_up(name, seed)
    checker = Checker(ops)

    clear_caches()
    before = cache_counts()
    run_round(ops, checker)
    metrics = hit_ratios(before, cache_counts())

    tracer = Tracer(w.CALLS)

    def traced():
        tracer.install()
        try:
            return run_round(ops, checker)
        finally:
            tracer.uninstall()
    plain, with_trace = _alternate(seconds, _pairs(ops, 3), lambda: run_round(ops, checker),
                                   traced)
    rounds = len(with_trace)
    for layer in LAYERS:
        metrics[f"{layer}.busy_ms"] = tracer.busy[layer] * 1e3 / rounds
        metrics[f"{layer}.calls"] = tracer.calls[layer] / rounds
    metrics["trace.overhead_pct"] = (median(with_trace) / median(plain) - 1) * 100

    records: list = []
    cli_ops = cli_golden.build(seed, traced=True)
    _recording(cli_ops, records)
    run_round(cli_ops, Checker(cli_ops))
    metrics.update(_cli_records(records))
    return metrics, checker, {"functions": tracer.functions}


def _cli(seed: int, seconds: float) -> tuple:
    cold = cli_golden.build(seed)
    warm = cli_golden.build(seed, traced=True)
    records: list = []
    _recording(warm, records)
    cold[0].call()  # the same warm-up as the untraced run
    checker = Checker(cold)
    warm_checker = Checker(warm)
    plain, with_trace = _alternate(seconds, _pairs(cold, 1), lambda: run_round(cold, checker),
                                   lambda: run_round(warm, warm_checker))
    rounds = len(with_trace)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.busy_ms"] = sum(r["busy_ms"][layer] for r in records) / rounds
        metrics[f"{layer}.calls"] = sum(r["calls"][layer] for r in records) / rounds
    zero = {k: (0, 0) for k in CACHES}
    total = {k: (sum(r["caches"][k][0] for r in records),
                 sum(r["caches"][k][1] for r in records)) for k in CACHES}
    metrics.update(hit_ratios(zero, total))
    metrics["trace.overhead_pct"] = (median(with_trace) / median(plain) - 1) * 100
    metrics.update(_cli_records(records))
    checker.merge(warm_checker)
    return metrics, checker, {}


def per_layer_unit(name: str) -> str:
    if name in PROBE_UNITS:
        return PROBE_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".calls"):
        return "count"
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "lines"


def per_layer(name: str, seed: int, seconds: float) -> dict:
    if name == "cli-golden":
        metrics, checker, detail = _cli(seed, seconds)
    else:
        metrics, checker, detail = _inproc(name, seed, seconds)
    metrics.update(run_probes())
    metrics.update(source_lines())
    detail["failures"] = dict(checker.failures)
    return result(checker, {k: (v, per_layer_unit(k)) for k, v in metrics.items()}, detail)
