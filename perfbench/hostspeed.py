"""Host speed calibration.

The shared machines this benchmark was built on change speed by up to 2x
over tens of seconds as other tenants load them, so raw wall times of the
same work differ more between two runs than the regressions the benchmark
must catch.  A fixed pure-Python loop, timed right before and right after
each timed piece of work, gives the host's speed at that moment, and the
benchmark reports times in reference-speed seconds:

    measured seconds * REFERENCE_S / mean of the two loop times

The loop does not touch lattice_lab, so a change to the program moves the
reported time and a change in the host's speed does not.  Result files keep
the raw times as well.
"""

from __future__ import annotations

import gc
import time

# A fixed scale, about the loop's time on the 2-core box the benchmark was
# built on when that box was busy; only ratios between runs matter.
REFERENCE_S = 0.102
# About 0.1 s a loop: long enough to average the host's jitter the way a
# second-long operation does, which a 17 ms loop did visibly less well.
_ITERATIONS = 300_000


def calibrate():
    """Seconds the fixed loop takes now, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        table = {}
        for i in range(_ITERATIONS):
            acc += i * i
            table[i & 1023] = (acc, i)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(before, after):
    """Scale from measured to reference-speed seconds for work timed
    between two calibrations."""
    return REFERENCE_S / ((before + after) / 2)
