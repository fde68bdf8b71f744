"""Host speed probe, and timings in reference seconds.

The machine's CPU speed moves with load from elsewhere: a fixed loop runs
up to 1.8 times slower in some 10 s windows than in others, and whole
runs move with it. A fixed probe slows by about the same factor as
aucal's own work. So the host's speed is sampled all through every timed
sample, and its wall time is also given in reference seconds:

    reference seconds = wall seconds * REFERENCE_S / mean probe time

A probe is one run of a fixed pure-Python loop. The median of REPEATS
probes is taken just before and just after the sample, outside the clock,
and one probe every INTERVAL_S during it, from a SIGALRM handler whose
time is taken off the sample's wall time. The probe does not call aucal
and touches almost no memory, so a change to aucal moves a sample's
reference time by the same share as its wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

# A round figure near the probe's median time on the machine the bounds in
# BENCHMARK.json were measured on. Any fixed value would do: it only sets
# the scale of a reference second.
REFERENCE_S = 0.001
REPEATS = 5
INTERVAL_S = 0.1


def probe() -> float:
    """Time of one run of the fixed loop, about REFERENCE_S."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i
    return time.perf_counter() - start


@dataclass(frozen=True)
class Sample:
    """One timed sample: wall seconds, without the probes taken during it,
    and the host's slowness over it (mean probe time / REFERENCE_S)."""

    wall: float
    slowness: float

    @property
    def ref(self) -> float:
        """The sample in reference seconds."""
        return self.wall / self.slowness


def timed(fn, sampled: bool = True):
    """fn's result and its Sample. With ``sampled`` false, the host's speed
    is probed only before and after fn, so that nothing runs inside it."""
    probes = [statistics.median(probe() for _ in range(REPEATS))]
    paused = 0.0

    def tick(signum, frame):
        nonlocal paused
        start = time.perf_counter()
        probes.append(probe())
        paused += time.perf_counter() - start

    if sampled:
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        if sampled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start - paused
    probes.append(statistics.median(probe() for _ in range(REPEATS)))
    return result, Sample(wall, statistics.fmean(probes) / REFERENCE_S)
