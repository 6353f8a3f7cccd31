"""Host-speed normalisation of wall times.

The benchmark is meant for small shared machines whose speed drifts by
tens of percent within a minute. On the 2-core machine it was defined
on, a fixed 0.65 s chunk of ``TrackingEnv.step`` calls spread by 35%
(quartile distance over median, 40 chunks) in wall time. The same
chunks spread by 9% once each was divided by the speed of
``interpreter_kernel`` sampled during it.

``SpeedSampler`` runs a kernel from a SIGALRM handler every
``INTERVAL_S`` of wall time and records when it ran and how long it
took. ``normalised(a, b)`` takes the wall time of ``[a, b]``, removes
the kernel's own time, and scales the rest by the kernel's reference
time over its mean time in ``[a, b]``. The result is the seconds the
interval would have taken on that machine at its usual speed. A
workload is sampled with the kernel that does its kind of work:
interpreter-bound small-array code, or multi-threaded BLAS. The
kernels do not touch the program's state or random streams, so a
sampled run computes exactly what an unsampled one does.
"""
from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05

_M = np.eye(9) * 2.0 + 0.01
_V = np.linspace(0.1, 1.0, 9)
_W = np.random.default_rng(0).standard_normal((256, 256))
_X = np.random.default_rng(1).standard_normal((1024, 256))


def interpreter_kernel() -> float:
    """Work of the simulator's kind: small solves and dots in a Python loop."""
    s = 0.0
    for i in range(150):
        s += float(np.linalg.solve(_M, _V)[0]) + float(_V @ _V) + i * 0.5
    return s


def blas_kernel() -> float:
    """Work of the optimiser's kind: a 1024-row product with a 256-wide layer."""
    return float((_X @ _W).sum())


# typical time of each kernel between a workload's calls on the defining
# machine; it only sets the scale
REFERENCE_S = {interpreter_kernel: 2.0e-3, blas_kernel: 2.5e-3}


class SpeedSampler:
    """Samples the kernel's duration at regular wall-time intervals.

    Use it as a context manager in the main thread; it restores the
    previous SIGALRM handler on exit.
    """

    def __init__(self, kernel=interpreter_kernel):
        self.kernel = kernel
        self.reference_s = REFERENCE_S[kernel]
        self.marks: list[tuple[float, float]] = []  # (start, end) per kernel run

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.marks.append((t0, time.perf_counter()))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalised(self, a: float, b: float) -> float:
        """Seconds ``[a, b]`` would have taken at the reference speed."""
        inside = [t1 - t0 for t0, t1 in self.marks if a <= t0 and t1 <= b]
        speed_sample = inside or [t1 - t0 for t0, t1 in self.marks]
        if not speed_sample:
            return b - a
        work = (b - a) - sum(inside)
        return work * self.reference_s * len(speed_sample) / sum(speed_sample)

    def busy(self, a: float, b: float) -> float:
        """Seconds of ``[a, b]`` spent in the kernel."""
        return sum(t1 - t0 for t0, t1 in self.marks if a <= t0 and t1 <= b)

    def slowdown(self) -> float:
        """Mean kernel time over the reference time, for the report."""
        if not self.marks:
            return 1.0
        return sum(t1 - t0 for t0, t1 in self.marks) / len(self.marks) / self.reference_s
