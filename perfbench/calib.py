"""A fixed CPU reference that puts timings taken at different machine
speeds on one scale.

The reference machine is a small VM on a shared host: its speed jumps
between about 1x and 1.8x within seconds, so the same operation timed in
two runs can differ by more than any bound worth gating on.  The
benchmark therefore times a fixed pure-Python loop next to the
operations it measures and reports every time scaled to the loop's
nominal speed::

    scaled = measured * REFERENCE_S / (loop time measured next to it)

Where the loop runs: in the cycle process before each cycle and after
the last, so each cycle is scaled by the two samples around it; around
each set-up; and in a serve phase between blocks of sessions (see
``run.BLOCK_S``), on the CPU the server's worker is pinned to (the
worker is idle then), each block scaled by the samples before and after
it.

The loop is the benchmark's own, so a change to the program moves the
scaled times exactly as it moves the measured ones; only the machine's
speed is taken out.  The factors and the unscaled figures are printed.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Optional

#: nominal seconds of one reference loop (about its median on the
#: reference machine); a factor below 1 means the machine ran slower than that
REFERENCE_S = 0.020
#: loops per sample; a sample is their mean
LOOPS = 4


def _loop() -> int:
    # dict, str and int work in the interpreter, as the program does
    table: dict = {}
    acc = 0
    for i in range(60000):
        k = i & 1023
        table[k] = table.get(k, 0) + i
        acc += len(str(i))
    return acc


def sample(cpu: Optional[int] = None) -> float:
    """Seconds of one reference loop now (mean of :data:`LOOPS`), timed
    on ``cpu`` if one is given."""
    if cpu is not None:
        own = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
    try:
        times = []
        for _ in range(LOOPS):
            t0 = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - t0)
    finally:
        if cpu is not None:
            os.sched_setaffinity(0, own)
    return statistics.mean(times)


def factor(*samples: float) -> float:
    """Scale for times measured between (or next to) ``samples``."""
    return REFERENCE_S / statistics.mean(samples)

