"""Layer tracing from outside the program.

A :class:`Tracer` replaces, for the length of a traced phase, the public
functions that the benchmark or ``cli.run_command`` calls in each layer
module with timing wrappers.  It patches the layer module's attribute and
the CLI module's imported name, and nothing else: calls the library makes
internally stay unwrapped.  Self time (a span minus its wrapped children)
and call counts are kept per layer and per function, in memory.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from time import perf_counter

LAYERS = ("parsing", "algebra", "reps_ideals", "hullkernel", "transform",
          "synthesis", "funcspace")

# metric prefix -> (module, candidate function names) of the library's caches
CACHES = {
    "dynsys.sigma_power_map": ("dynsys", ("sigma_power_map",)),
    "dynsys.lcm_order": ("dynsys", ("lcm_order", "_lcm_order")),
    "funcspace.rotation_phase": ("funcspace", ("rotation_phase",)),
}


def cli_calls() -> dict:
    """Layer functions the CLI module imported by name (what run_command calls)."""
    cli = sys.modules.get("crossedprod.cli")
    out: dict = {}
    if cli is None:
        return out
    for name, obj in vars(cli).items():
        mod = getattr(obj, "__module__", "") or ""
        layer = mod.rpartition(".")[2]
        if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                and mod.startswith("crossedprod.") and layer in LAYERS):
            out.setdefault(layer, set()).add(name)
    return out


class Tracer:
    def __init__(self, calls: dict):
        self.targets = {layer: set(names) for layer, names in calls.items()}
        for layer, names in cli_calls().items():
            self.targets.setdefault(layer, set()).update(names)
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.functions: dict = {}  # "layer.name" -> [calls, self seconds]
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, layer: str, name: str, fn):
        stack, busy, calls = self._stack, self.busy, self.calls
        stat = self.functions.setdefault(f"{layer}.{name}", [0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0
                own = span - stack.pop()
                if stack:
                    stack[-1] += span
                busy[layer] += own
                calls[layer] += 1
                stat[0] += 1
                stat[1] += own
        return traced

    def install(self) -> None:
        cli = sys.modules.get("crossedprod.cli")
        for layer, names in self.targets.items():
            module = importlib.import_module(f"crossedprod.{layer}")
            for name in sorted(names):
                orig = getattr(module, name, None)
                if not callable(orig):
                    continue
                wrapped = self._wrap(layer, name, orig)
                holders = [module]
                if cli is not None and getattr(cli, name, None) is orig:
                    holders.append(cli)
                for holder in holders:
                    setattr(holder, name, wrapped)
                    self._patches.append((holder, name, orig))

    def uninstall(self) -> None:
        for holder, name, orig in reversed(self._patches):
            setattr(holder, name, orig)
        self._patches.clear()


def _cache_fn(module: str, names):
    mod = importlib.import_module(f"crossedprod.{module}")
    for name in names:
        fn = getattr(mod, name, None)
        if fn is not None and hasattr(fn, "cache_info"):
            return fn
    return None


def cache_counts() -> dict:
    """metric prefix -> (hits, misses) so far; (0, 0) for a cache that is gone."""
    out = {}
    for key, (module, names) in CACHES.items():
        fn = _cache_fn(module, names)
        info = fn.cache_info() if fn is not None else None
        out[key] = (info.hits, info.misses) if info is not None else (0, 0)
    return out


def clear_caches() -> None:
    for module, names in CACHES.values():
        fn = _cache_fn(module, names)
        if fn is not None:
            fn.cache_clear()


def hit_ratios(before: dict, after: dict) -> dict:
    """Share of lookups answered from the cache between two snapshots;
    0 where there was no lookup."""
    out = {}
    for key in CACHES:
        hits = after[key][0] - before[key][0]
        misses = after[key][1] - before[key][1]
        total = hits + misses
        out[f"{key}.hit_ratio"] = hits / total if total else 0.0
    return out
