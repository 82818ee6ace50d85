"""Run one pdlangevin CLI invocation in this fresh interpreter and report it.

    python3 bench/child.py RESULT_JSON TRACE(0|1) CLI_ARG...

Times the import of ``pdlangevin.cli`` and the in-process ``main(argv)``
call, takes the CPU time and peak resident memory of this process from
``getrusage``, and writes them as JSON to RESULT_JSON. With TRACE=1 the
layer spans of ``tracing.Tracer`` are installed first and their per-layer
metrics are added. The package must be importable from ``src/`` of the
current directory; the parent sets ``PYTHONPATH`` for that.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _threads() -> int:
    """Threads of this process at exit, BLAS pool included."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _blas() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv: list[str]) -> int:
    result_path, trace, cli_args = Path(argv[0]), argv[1] == "1", argv[2:]
    src = Path.cwd() / "src"

    t0 = time.perf_counter()
    import pdlangevin.cli as cli

    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"pdlangevin imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    entry = cli.main
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.span("cli", cli.main)

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    m0 = time.monotonic()
    w0 = time.perf_counter()
    try:
        rc = entry(cli_args)
    except SystemExit as e:  # argparse rejects malformed arguments this way
        rc = e.code if isinstance(e.code, int) else 2
    wall_s = time.perf_counter() - w0
    m1 = time.monotonic()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    import numpy
    import scipy

    out = {
        "rc": rc,
        "wall_s": wall_s,
        "t_start": m0,  # monotonic clock, shared with the host speed probe
        "t_end": m1,
        "cpu_s": _cpu_s(usage1) - _cpu_s(usage0),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "import_s": import_s,
        "threads": _threads(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": {
            k: os.environ.get(k, "unset")
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(wall_s, import_s)
    result_path.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
