"""Host-speed reference of the uavmec benchmark.

On a shared host the speed of one CPU drifts: a fixed numpy/Python kernel
took 1.3-1.7x longer for stretches of one to tens of seconds, the two vCPUs
drifted independently of each other, and between sets of runs minutes
apart, pass times moved by a quarter.  CPU time drifts with wall time (the
slow stretches show no steal time), so no clock alone hides it, and a
sampler on the other CPU would not see it.  A :class:`SpeedClock`
therefore runs a short fixed reference kernel in the benchmark's own
process at marks: before and after each plan, at the ends of a pass and
at calls into a layer (``tracing.LAYERS``) at least ``GAP_S`` apart.  It
scales the work time between two marks by
``REF_S / mean(kernel time at the two marks)``: the time the work would
have taken at the speed the kernel shows on a quiet host.

The kernel mixes what the planner spends its time on: small dense BLAS
solves (QCQP Newton steps), an interpreted Python loop (per-slot model
code, L-BFGS-B callbacks) and a stream over an array larger than the
last-level cache share (the dense P4 constraint stack).  It uses nothing
from ``uavmec``, so a change to the program cannot change the yardstick.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

import tracing

# The kernel's duration [s] on a quiet host: 2-vCPU Intel Xeon at 2.1 GHz,
# Python 3.11, numpy 2.4 with OpenBLAS 0.3.31 on one thread.  A scale
# only; every scaled time is proportional to it.
REF_S = 0.030
# Least time between marks taken at layer calls.  A plan of the proposed
# scheme runs for several seconds, over which the host's speed changes.
GAP_S = 0.5


class SpeedClock:
    """Marks between units of work; scales the work time between marks.

    With ``reference=False`` a mark only reads the clock, so the scaled
    time equals the work time (used while tracing, where the kernel would
    land inside layer spans).
    """

    def __init__(self, reference: bool = True):
        self.reference = reference
        rng = np.random.default_rng(0)
        self._a = rng.random((60, 60)) + 60.0 * np.eye(60)
        self._b = rng.random((60, 4))
        self._stream = rng.random(1 << 20)     # 8 MiB
        self.marks: list[tuple[float, float]] = []  # (start, end) of each mark

    def _kernel(self) -> None:
        for _ in range(200):
            np.linalg.solve(self._a, self._b)
        x = 0.0
        for i in range(120000):
            x += i * 0.5
        for _ in range(20):
            self._stream.sum()

    def mark(self) -> int:
        """Run the reference kernel (if enabled); return the mark's index."""
        t0 = time.perf_counter()
        if self.reference:
            self._kernel()
        self.marks.append((t0, time.perf_counter()))
        return len(self.marks) - 1

    @contextlib.contextmanager
    def in_layers(self, gap_s: float = GAP_S):
        """While the block runs, also mark at any call into a layer of
        ``tracing.LAYERS`` that comes ``gap_s`` or more after the last mark."""
        if not self.reference:
            yield
            return

        def make_wrapper(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.marks and time.perf_counter() - self.marks[-1][1] >= gap_s:
                    self.mark()
                return fn(*args, **kwargs)
            return wrapper

        with tracing.patched(make_wrapper):
            yield

    def work_s(self, i: int, j: int) -> float:
        """Time between marks ``i`` and ``j`` that the kernel did not take."""
        return sum(self.marks[k + 1][0] - self.marks[k][1] for k in range(i, j))

    def scale(self, k: int) -> float:
        """Quiet-host seconds per second of work between marks ``k`` and ``k + 1``."""
        if not self.reference:
            return 1.0
        return REF_S / (0.5 * sum(e - s for s, e in self.marks[k:k + 2]))

    def scaled_s(self, i: int, j: int) -> float:
        """Work time between marks ``i`` and ``j`` at the quiet host's speed."""
        return sum((self.marks[k + 1][0] - self.marks[k][1]) * self.scale(k)
                   for k in range(i, j))
