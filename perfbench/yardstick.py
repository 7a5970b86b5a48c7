"""A fixed piece of numpy work that measures the machine's current speed."""

import statistics
import time

import numpy as np

REPEATS = 5
# Median of Yardstick.seconds() on the reference machine, a 2-vCPU Intel Xeon
# VM with Python 3.11 and numpy 2.4 (OpenBLAS, one thread), in a quiet phase.
# A time divided by the adjacent yardstick time and multiplied by this reads
# as seconds on that machine.
REFERENCE_S = 0.039


class Yardstick:
    """A fixed piece of numpy work, timed next to every pass.

    On a virtual machine that shares its host, CPU speed can drift by a
    quarter or more within a minute (measured on a 2-vCPU Xeon VM), and the
    drift moves every pass in a run alike, so a median of raw pass times
    spreads too widely between runs to bound a regression.  Dividing each
    pass, and each set-up probe, by the mean of the yardstick times measured
    just before and after it cancels part of the drift: over ten seeds the
    spread of the median pass fell from 0.08-0.21 to 0.04-0.07 of the
    median (perfbench/BASELINE.md).  The yardstick runs no library code, so
    a change to the library moves only the numerator.

    Its three parts, of about equal time, mirror where the workloads spend
    theirs: many calls on small arrays (per-call overhead), arithmetic over
    a 1 MB array, and a BLAS matrix product.  The array work writes into buffers made once: a
    fresh large allocation each time would time the allocator, whose state
    the preceding pass leaves behind.
    """

    def __init__(self):
        self.small = np.linspace(0.0, 1.0, 128) + 0.5j
        self.array = np.linspace(1.0, 2.0, 1 << 16) + 0.5j
        self.buffer = np.empty_like(self.array)
        self.modulus = np.empty(self.array.shape)
        self.matrix = np.linspace(-1.0, 1.0, 200 * 200).reshape(200, 200)

    def seconds(self) -> float:
        """Median time of REPEATS runs of the fixed work."""
        return statistics.median(self._once() for _ in range(REPEATS))

    def _once(self) -> float:
        start = time.perf_counter()
        total = 0.0
        for i in range(4000):
            total += float(np.abs(self.small * (1.0 + 1e-9 * i)).sum())
        for i in range(40):
            np.add(self.array, i, out=self.buffer)
            np.reciprocal(self.buffer, out=self.buffer)
            total += float(np.abs(self.buffer, out=self.modulus).sum())
        for _ in range(40):
            total += float((self.matrix @ self.matrix).sum())
        elapsed = time.perf_counter() - start
        if not np.isfinite(total):
            raise RuntimeError("yardstick produced a non-finite sum")
        return elapsed
