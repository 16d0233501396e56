"""Machine-speed reference for the benchmark's times.

The CPU speed a process gets on a shared machine drifts by up to a factor
of two within seconds, in CPU time as much as in wall time, so raw wall
times of the same code differ from run to run by more than the changes
the benchmark is meant to show.  The benchmark therefore samples the speed
of a fixed stdlib loop of the same kind of work (small-object `Fraction`
arithmetic into a tuple-keyed dict, then a sort) while it measures, and
reports nominal seconds: the time the measured code would take on a
machine where the loop takes `NOMINAL_S`.  The loop uses nothing from
conslaw-kit, so a change to the engine cannot change it.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# the loop's time on the 2-core x86-64 machine the benchmark was tuned on,
# in its faster state
NOMINAL_S = 0.0015
PROBE_INTERVAL_S = 0.05


def reference_s() -> float:
    """Wall time of one pass of the reference loop."""
    start = perf_counter()
    acc: dict[tuple[int, int], Fraction] = {}
    for i in range(500):
        key = (i % 37, i % 11)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7 + 1, i % 13 + 1)
    sorted(acc.items())
    return perf_counter() - start


def nominal(wall_s: float, reference_samples) -> float:
    """Wall seconds rescaled to the nominal machine speed."""
    return wall_s * statistics.mean(NOMINAL_S / r for r in reference_samples)


class SpeedProbe:
    """Times its body and samples the reference loop right before it,
    right after it, and from a SIGALRM handler every PROBE_INTERVAL_S
    within it.  `wall_s` excludes the handler's own time."""

    def __enter__(self) -> "SpeedProbe":
        self.samples = [reference_s()]
        self.probe_s = 0.0
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.total_s = perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.samples.append(reference_s())

    def _tick(self, signum, frame) -> None:
        # a collection the loop triggered would walk the engine's objects
        # and its time would be subtracted from the span: leave every
        # collection to the engine code that causes it
        start = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(reference_s())
        finally:
            if enabled:
                gc.enable()
        self.probe_s += perf_counter() - start

    @property
    def wall_s(self) -> float:
        return self.total_s - self.probe_s

    @property
    def nominal_s(self) -> float:
        return nominal(self.wall_s, self.samples)
