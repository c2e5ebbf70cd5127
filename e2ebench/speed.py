"""Times at a fixed reference speed of the host.

On a shared host the CPU's speed changes in spells of seconds to minutes,
so one piece of work takes a different wall time from run to run.  Every
timed unit of the benchmark (a clock step, a query, a set-up) is therefore
bracketed by two passes of a fixed pure-Python reference loop, and its
time is reported at the speed at which that loop takes ``REF_S``:

    time at the reference speed = wall time * REF_S / mean(loop before, loop after)

The loop is the benchmark's own code and never changes, so a change to the
program moves its wall time and not the loop's: it moves the result in
full.  A slower spell of the host moves both and cancels out.
"""

from __future__ import annotations

import gc
import time

#: The reference loop's time at the speed results are reported at.  A round
#: figure a little above the loop's median on the host the baseline was
#: measured on (0.35-0.56 ms per run), so results there read 0.9-1.4× its
#: wall times.
REF_S = 5e-4
LOOP_ITEMS = 2500
#: Every probe's time, for the run's report.
probes: list[float] = []


def probe() -> float:
    """One pass of the reference loop; its wall time in seconds.  The
    cyclic collector is off during it, so garbage the program left behind
    is not collected on the loop's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        d = {}
        for i in range(LOOP_ITEMS):
            d[str(i)] = i
        dt = time.perf_counter() - t
        probes.append(dt)
        return dt
    finally:
        if enabled:
            gc.enable()


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between the probes ``before`` and ``after``,
    at the reference speed."""
    return seconds * 2 * REF_S / (before + after)
