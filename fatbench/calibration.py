"""Host-speed calibration: a fixed kernel timed between the measured runs.

A shared host changes speed while the benchmark runs.  On the 2-vCPU
development host the median wall time of ``jfat_fused`` runs over
successive 20-second windows ranged from 0.89 s to 1.55 s, and longer
windows did not average it away: window medians spread 0.18-0.22 of their
median for every window length from 20 s to 90 s.  The slowdown hits
NumPy and pure-Python work alike, so a fixed kernel of both, timed between
runs, tracks it.  Adjusted timings are ``wall time x REFERENCE_S /
kernel time``: seconds at the reference host's speed.

The kernel depends on nothing in ``src/``, so no change to the program
moves it, and its inputs are fixed, independent of ``--seed``.  It does
not track what a CPU kernel cannot see, such as disk latency.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The kernel's time on the host the benchmark was defined on (2 vCPUs,
#: 2.0 GHz, numpy/OpenBLAS pinned to one thread).  Adjusted timings are in
#: seconds at that host's speed.
REFERENCE_S = 0.015
#: Kernel passes per calibration point; their median is the point's value.
PASSES = 5

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((32, 72))
_B = _RNG.standard_normal((72, 256))
_X = _RNG.standard_normal((8, 8, 10, 10))


class _Counter:
    def __init__(self) -> None:
        self.scale = 1.0

    def step(self, x: float) -> float:
        return self.scale * x + 1.0


def kernel_s() -> float:
    """Wall time of one pass of a fixed NumPy + pure-Python kernel.

    Small GEMMs, elementwise ops, padding and layout copies (the shapes of
    an 8-px conv layer), then a loop of method calls: the instruction mix
    of the workloads, without any of their code.
    """
    t0 = time.perf_counter()
    for _ in range(80):
        c = np.maximum(_A @ _B, 0.0)
        c.sum(axis=1)
        _X.transpose(0, 2, 3, 1).reshape(-1, 8).copy()
        np.pad(_X, ((0, 0), (0, 0), (1, 1), (1, 1)))
    counter = _Counter()
    acc = 0.0
    for i in range(12_000):
        acc += counter.step(i)
    return time.perf_counter() - t0


def calibrate() -> float:
    """One calibration point: the median of :data:`PASSES` kernel passes."""
    return statistics.median(kernel_s() for _ in range(PASSES))
