"""A probe of how fast this machine runs Python at the moment.

The benchmark runs on shared machines whose speed for one thread swings by
up to 2x within seconds as other tenants come and go; raw times drift with
them far more than with any change to the program.  The probe is a fixed
loop of Fraction arithmetic, the same kind of work as commcount's own.  It
runs twice and only the second, warm pass is timed, with the collector off,
so its time depends on the machine and not on what the program left in the
caches or on its heap.  The benchmark scales a measured time by
PROBE_REFERENCE_S over the mean probe time around it: the result is the
time at the speed where one probe takes PROBE_REFERENCE_S.
"""
from __future__ import annotations

import gc
import time
from fractions import Fraction

PROBE_REFERENCE_S = 1e-4


def _loop() -> None:
    acc = Fraction(0)
    for i in range(1, 25):
        acc += Fraction(i % 7, i % 5 + 1)


def probe() -> tuple[float, float]:
    """(start, seconds) of one warm pass of the probe loop."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        _loop()
        t0 = time.perf_counter()
        _loop()
        return t0, time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()
