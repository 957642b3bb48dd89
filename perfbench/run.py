"""crossedprod benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs come from the
seed alone.  One client drives the program in a closed loop, one
operation at a time, in whole rounds of the same operations, for at least
S seconds and at least 100 operations; every answer is checked after the
clock stops.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (a traced run of the same rounds,
fixed-size probes, CLI start-up split and source size) with ``--trace 1``.
Details of the run go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import BENCH_DIR, MissingProgram, require_program
from harness import WORKLOADS, end_to_end, set_up

OUT_DIR = BENCH_DIR / "out"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        require_program()
    except MissingProgram as ex:
        print(f"run.py: {ex}", file=sys.stderr)
        return 2
    if args.setup_only:
        set_up(args.workload, args.seed)
        return 0
    if args.trace:
        from traced import per_layer
        res = per_layer(args.workload, args.seed, args.seconds)
    else:
        res = end_to_end(args.workload, args.seed, args.seconds)
    detail = res.pop("detail")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**res, "detail": detail}, indent=1, sort_keys=True))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
