"""Host seconds at a reference interpreter speed.

The machine a benchmark shares changes speed under it: other tenants' load
moves the time of a fixed pure-Python loop by up to about 1.5x, in stretches
from seconds to minutes, so the wall seconds of identical work spread by
about 20% from run to run.  :class:`SpeedSampler` times a fixed loop from a
second thread every 10 ms while the workload runs.  An interval's
*reference seconds* are its wall seconds times ``REFERENCE_PROBE_S`` over
the median probe time inside it: what the interval would have taken at the
speed where the probe loop takes ``REFERENCE_PROBE_S``.

The workload and the sampler share one CPU (:func:`pin_to_current_cpu`):
on a shared VM the vCPUs can slow down independently.  The probe holds the
GIL for about 0.2 ms per sample, so the sampler costs the workload about
2-3% of its wall time, the same on every run.
"""
from __future__ import annotations

import bisect
import os
import statistics
import threading
from time import perf_counter

#: probe seconds that define the reference speed (a typical probe time on
#: the 2.1 GHz Xeon vCPUs the baseline in README.md was measured on)
REFERENCE_PROBE_S = 250e-6
PERIOD_S = 0.01


def _probe_loop() -> None:
    x = 0
    for i in range(3000):
        x += i * i


def pin_to_current_cpu() -> None:
    """Keep this process, and threads it starts later, on the CPU it runs
    on now, so the sampler probes the CPU the workload gets."""
    if not hasattr(os, 'sched_setaffinity'):
        return
    with open('/proc/self/stat') as f:
        cpu = int(f.read().rsplit(')', 1)[1].split()[36])   # field 39
    os.sched_setaffinity(0, {cpu})


class SpeedSampler(threading.Thread):
    """Background probe of the interpreter's speed; use as a context manager."""

    def __init__(self):
        super().__init__(name='speed-sampler', daemon=True)
        self.times: list[float] = []       # probe start, perf_counter clock
        self.probes: list[float] = []      # probe seconds
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(PERIOD_S):
            start = perf_counter()
            _probe_loop()
            self.probes.append(perf_counter() - start)
            self.times.append(start)

    def __enter__(self) -> 'SpeedSampler':
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self._halt.set()
        self.join()

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]``."""
        count = len(self.times)
        if count == 0:
            return end - start
        lo = bisect.bisect_left(self.times, start, 0, count)
        hi = bisect.bisect_right(self.times, end, 0, count)
        # an interval shorter than the period uses the nearest probe
        probes = self.probes[lo:hi] or [self.probes[min(lo, count - 1)]]
        return (end - start) * REFERENCE_PROBE_S / statistics.median(probes)
