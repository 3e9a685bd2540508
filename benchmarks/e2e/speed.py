"""Machine-speed calibration: measured seconds as reference seconds.

A shared VM runs the same Python code at speeds up to 2.4x apart, in
phases that last from seconds to minutes (README.md).  No statistic
over a 30 s run removes a phase that covers all of it.  So while a run
works, a ``SIGPROF`` handler runs a fixed interpreter-bound kernel every
``PERIOD_S`` of process CPU time and records how long it took.  A timed
interval's reference seconds are its measured seconds minus the
samples' own time, each stretch between two samples scaled by
``KERNEL_REF_S`` over the mean duration of those two samples: a
reference second is a second at the speed at which the kernel takes
``KERNEL_REF_S``.  The kernel belongs to the benchmark, so no change to
the program moves it; the measured seconds stay in the result files.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Tuple

# About the kernel's time, called from the handler, on a 2.1 GHz Intel
# Xeon vCPU (CPython 3.11, the reference machine of README.md) in its fast
# phase.
KERNEL_REF_S = 0.001
# Process CPU time between two samples; the samples cost 2-4 % of it.
PERIOD_S = 0.05


def _kernel() -> int:
    """List indexing, dict reads and writes and integer arithmetic, the
    operations the program's netlist and SAT code spend their time in."""
    slots = list(range(64))
    table = {}
    acc = 0
    for i in range(6_000):
        j = slots[i & 63]
        table[j ^ (i & 7)] = i
        acc += table.get(i & 63, 1) & 0xFF
        slots[i & 63] = (j * 5 + 1) & 63
    return acc


class SpeedSampler:
    """Samples the machine's speed while it is entered (main thread only).

    Every sample is one ``(start, end)`` pair of ``time.perf_counter``
    readings around one kernel call; ``ref_seconds`` turns an interval
    measured with the same clock into reference seconds.
    """

    def __init__(self) -> None:
        self._samples: List[Tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _kernel()
        self._samples.append((start, time.perf_counter()))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the work done between ``t0`` and ``t1``.

        Stretch ``k`` runs from the end of sample ``k - 1`` to the start
        of sample ``k``; the stretches before the first and after the last
        sample take the speed of the nearest one.
        """
        samples = list(self._samples)
        starts = [start for start, _ in samples]
        ends = [end for _, end in samples]
        durations = [end - start for start, end in samples]
        n = len(samples)
        total = 0.0
        for k in range(bisect.bisect_right(starts, t0), bisect.bisect_left(ends, t1) + 1):
            lo = max(t0, ends[k - 1]) if k > 0 else t0
            hi = min(t1, starts[k]) if k < n else t1
            if hi <= lo:
                continue
            near = durations[max(k - 1, 0):k + 1]
            total += (hi - lo) * KERNEL_REF_S * len(near) / sum(near)
        return total
