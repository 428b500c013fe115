"""Reference loops that measure how fast the machine runs right now.

On a shared host the interpreter's speed can switch between states 1.6x
apart within seconds, while numpy's libm kernels hardly move.  Each time
the benchmark reports is therefore also given scaled to a reference speed:
the time divided by what a fixed loop of the same kind of work took next
to it, times that loop's reference time.  The loops are the benchmark's
own code, so no change to the program can change them.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

_XS = np.linspace(-2.0, 2.0, 20000)  # half negative, like the scan lattices


def python_loop() -> float:
    """Exact rational and float scalar arithmetic; returns seconds."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(i, i + 1)
    x = 0.0
    table = {}
    for i in range(12000):
        x += i * 0.5 - x * 1e-9
        table[i & 63] = x
    return time.perf_counter() - t0


def numpy_loop() -> float:
    """Integer powers of a float array through numpy; returns seconds."""
    t0 = time.perf_counter()
    for e in (3, 4, 5, 6):
        _XS ** np.int64(e)
    return time.perf_counter() - t0


# (loop, its time in seconds at the reference speed).  The reference times
# are round figures near the loops' times on the machine in the README.
LOOPS = {"python": (python_loop, 2.5e-3), "numpy": (numpy_loop, 5.0e-3)}


class Gauge:
    """Turns measured seconds into seconds at the reference speed, using
    the loop times taken just before and just after the measured work."""

    def __init__(self, kind: str):
        self.loop, self.reference = LOOPS[kind]
        self.last = self.loop()

    def restart(self) -> None:
        self.last = self.loop()

    def scale(self) -> float:
        """Factor for the work done since the previous call."""
        before, self.last = self.last, self.loop()
        return self.reference / (0.5 * (before + self.last))
