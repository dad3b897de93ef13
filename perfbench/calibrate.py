"""A fixed reference computation that measures how fast the host is now.

The benchmark runs on shared hosts whose CPUs change speed by up to 2x
over seconds to minutes, each CPU on its own, and process CPU time moves
with wall time: a neighbour slows the CPU itself.  ``run.py`` therefore
keeps itself and its children on one CPU, times this loop in its own
process between children, and rescales the run's times to a host on
which the loop takes :data:`REFERENCE_S` seconds (``run.speed_scale``).

The loop is the kind of work the simulator does (a heap of timed events
over tens of thousands of live small objects, dict churn, float
arithmetic and small NumPy calls) but uses nothing from ``repro``, so no
change to the program moves it.  Never change it: its time is the
yardstick every result is read against.
"""

from __future__ import annotations

import gc
import heapq
import math
import time

import numpy as np

#: Seconds one pass takes on the reference host.  It only sets the scale
#: of the rescaled times: about the median on the 2-vCPU x86-64 host the
#: benchmark was defined on.
REFERENCE_S = 0.1

_EVENTS = 60_000
_LIVE = 20_000


class _Item:
    __slots__ = ("key", "rate", "left")

    def __init__(self, key: int, rate: float, left: float) -> None:
        self.key = key
        self.rate = rate
        self.left = left


def _pass() -> float:
    heap: list = []
    items = {}
    acc = 0.0
    x = 7
    for i in range(_EVENTS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        item = _Item(i, 1.0 + (x & 1023) / 97.0, float(x & 4095) + 1.0)
        items[i] = item
        heapq.heappush(heap, (item.left / item.rate, i))
        if len(heap) > _LIVE:
            t, key = heapq.heappop(heap)
            done = items.pop(key)
            acc += math.sqrt(t) + done.rate * 1e-3
        if i % 500 == 0:
            rates = np.fromiter((heap[j][0] for j in range(min(16, len(heap)))),
                                dtype=float)
            acc += float(np.minimum(rates, rates.mean()).sum())
    return acc


def calibrate() -> float:
    """Seconds of one fixed pass of the reference loop.  The loop makes
    no reference cycles; the cyclic GC is off so that its passes, whose
    cost depends on what else the process holds, stay out of the time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = _pass()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if not math.isfinite(acc):
        raise RuntimeError("calibration loop went non-finite")
    return elapsed
