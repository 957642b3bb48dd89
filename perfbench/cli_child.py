"""One traced CLI invocation, for the traced ``cli-golden`` run.

Usage: python perfbench/cli_child.py SPAWN_PERF_COUNTER ARGV...

Prints one JSON record: the exit code and stdout of ``run_command(ARGV)``,
the interpreter start time (from the parent's spawn to this script's first
line, on the shared monotonic clock), the import time of the CLI module,
the part of it spent executing numpy's package, the ``run_command`` time,
per-layer self time and calls, and the library's cache counters.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from importlib.machinery import PathFinder  # noqa: E402


class NumpyClock:
    """Meta-path finder that times the execution of numpy's package module,
    whenever the library first imports it."""

    def __init__(self):
        self.seconds = 0.0

    def find_spec(self, name, path=None, target=None):
        if name != "numpy":
            return None
        spec = PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        inner = spec.loader.exec_module

        def exec_module(module):
            t0 = time.perf_counter()
            try:
                inner(module)
            finally:
                self.seconds += time.perf_counter() - t0
        spec.loader.exec_module = exec_module
        return spec


def main() -> int:
    spawn = float(sys.argv[1])
    argv = sys.argv[2:]
    clock = NumpyClock()
    sys.meta_path.insert(0, clock)
    t0 = time.perf_counter()
    import crossedprod.cli as cli
    import_s = time.perf_counter() - t0

    from tracing import Tracer, cache_counts
    tracer = Tracer({})
    tracer.install()
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.run_command(argv)
    run_s = time.perf_counter() - t0
    tracer.uninstall()
    print(json.dumps({
        "code": code,
        "out": buf.getvalue(),
        "interpreter_ms": (START - spawn) * 1e3,
        "import_ms": import_s * 1e3,
        "numpy_import_ms": clock.seconds * 1e3,
        "run_command_ms": run_s * 1e3,
        "busy_ms": {k: v * 1e3 for k, v in tracer.busy.items()},
        "calls": tracer.calls,
        "caches": cache_counts(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
