"""Host speed probe, run beside the measured invocations.

    python3 bench/hostspeed.py OUT_FILE

Every 50 ms it runs one fixed kernel, small numpy operations on 64-element
arrays in a Python loop, and appends a line ``<time.monotonic() at the
end> <CPU seconds the kernel took>`` to OUT_FILE, until it is terminated.

The kernel is timed in CPU time, not wall time, so a program that keeps
the other core busy slows the probe only as much as it slows the host,
not by taking the probe's turns. The kernel fits in L1 and takes about 2%
of one core, so the probe barely touches the invocation it runs beside.
"""

from __future__ import annotations

import sys
import time

import numpy as np

REPS = 100
PAUSE_S = 0.05


def kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    for _ in range(REPS):
        a = 0.5 * a + 0.1 * b
        np.clip(a, -1.0, 1.0, out=a)
    return a


def main(path: str) -> None:
    a, b = np.linspace(-1.0, 1.0, 64), np.ones(64)
    with open(path, "w", encoding="ascii", buffering=1) as out:
        while True:
            c0 = time.process_time()
            a = kernel(a, b)
            c1 = time.process_time()
            out.write(f"{time.monotonic()!r} {c1 - c0!r}\n")
            time.sleep(PAUSE_S)


if __name__ == "__main__":
    main(sys.argv[1])
