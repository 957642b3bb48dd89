"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--seed0 1]

Runs each workload ``--runs`` times, one seed per run (seed0, seed0+1, ...),
through the command in ``BENCHMARK.json`` with its ``run_seconds``, one run
at a time.  For every end-to-end metric it prints the median, the first and
third quartile (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and the metric's bound, and for each workload the
share of failed operations in every run.  ``setup_s`` may spread past its
bound; every other spread should stay below a third of it.  The runs are
also written to ``perfbench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction

from common import BENCH_DIR, ROOT

OUT_DIR = BENCH_DIR / "out"
RUN_TIMEOUT_S = 900


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def summarise(bench: dict, workload: str, runs: list) -> list:
    rows = []
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        rows.append((m["name"], med, q1, q3, spread, m["bound"]))
    return rows


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description="run-to-run spread of the end-to-end metrics")
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    OUT_DIR.mkdir(exist_ok=True)
    steady = True
    for workload in args.workload or names:
        runs = [run_once(bench, workload, args.seed0 + k) for k in range(args.runs)]
        (OUT_DIR / f"steady-{workload}.json").write_text(json.dumps(runs, indent=1))
        shares = sorted({str(Fraction(r["failed"], r["attempted"])) for r in runs})
        print(f"{workload}: {args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}, "
              f"correct={all(r['correct'] for r in runs)}, failed share {' '.join(shares)}")
        print(f"  {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, med, q1, q3, spread, bound in summarise(bench, workload, runs):
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <- above bound/3"
            steady = steady and (name == "setup_s" or spread <= bound)
            print(f"  {name:12s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {bound:6.3f}{flag}")
        steady = steady and len(shares) == 1
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
