"""Host speed: a fixed reference kernel timed beside the program.

The benchmark runs on a host shared with other tenants, whose speed
drifts by tens of percent for seconds to minutes.  A fixed kernel that
belongs to the benchmark, not to the package, slows down with the host in
step with the package's own work (both are single-threaded mixes of
interpreter work and small dense linear algebra).  Its time divided by
``NOMINAL_S`` is the host's slowdown at that moment, and a wall time
divided by the slowdown is the time the same work takes at the nominal
host speed.  The scaling has exponent one: on a host whose speed does not
change it multiplies every figure by the same constant, so the ratio of
two commits is the ratio of their wall times.

``pin_to_one_cpu`` keeps the benchmark, its kernel samples and the
interpreters it launches on one CPU, so that the samples see the same CPU
as the work they correct.
"""

from __future__ import annotations

import os
import signal
import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.004
INTERVAL_S = 0.25
BURST = 10

_MATRIX = np.random.default_rng(0).standard_normal((61, 61))
_MATRIX = _MATRIX + _MATRIX.T


def kernel() -> float:
    """Run the reference kernel once; its wall time in seconds.

    Four symmetric eigendecompositions at dimension 61 (the size of a
    prism N=20 system) and a short pure-Python loop.
    """
    started = perf_counter()
    for _ in range(4):
        np.linalg.eigh(_MATRIX)
    total = 0
    for i in range(20000):
        total += i * i % 7
    return perf_counter() - started


def burst() -> list[float]:
    return [kernel() for _ in range(BURST)]


def slowdown(samples: list[float]) -> float:
    """Mean kernel time over ``NOMINAL_S``: above 1 on a slow host."""
    return statistics.fmean(samples) / NOMINAL_S


def pin_to_one_cpu() -> None:
    """Bind this process (and what it launches) to one allowed CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Sampler:
    """Time the kernel every ``INTERVAL_S`` while the block runs.

    A ``SIGALRM`` handler runs the kernel between two bytecodes of the
    main thread (after a long BLAS call, the handler waits for it to
    return).  ``overhead_s`` is the time spent in the handler, to be
    taken off the block's wall time.  One sample is also taken on entry
    and one on exit, outside the block, so a short block has samples too.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.overhead_s = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        started = perf_counter()
        self.samples.append(kernel())
        self.overhead_s += perf_counter() - started

    def __enter__(self) -> "Sampler":
        self.samples.append(kernel())
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel())

    @property
    def slowdown(self) -> float:
        return slowdown(self.samples)
