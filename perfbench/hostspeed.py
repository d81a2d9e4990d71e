"""Host speed: how much slower than its reference time the host runs a
fixed computation right now.

The benchmark runs on a shared 2-vCPU virtual machine whose speed
drifts by up to 1.7x over tens of seconds, with no steal time to show
for it (process time tracks wall time).  On such a host a 20-second run
lands in a fast or a slow spell by chance, which puts the run-to-run
spread of raw timings above any useful regression bound.  So every
timing that computation dominates is divided by the factor measured
just before its unit of work (a sweep call, or a service cycle), and
reads as the time on a host running at the reference speed.  Timings
that a timer dominates (the service's lease waits and remote-sweep
polls) are left as measured.

The kernel is NumPy and interpreter work only (an integer loop, a
random gather over an 8 MB array and sparse mat-vecs on a 20k-row
matrix), so no change to the program moves it.  Timed before each
``sweep-smc`` and ``solve-large`` sweep call for ~150 s each, it cut
the spread (IQR/median) of 15-30 second estimates from 0.17-0.24 to
0.08-0.09 on ``sweep-smc`` and from 0.12-0.18 to 0.08-0.09 on
``solve-large``.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np
import scipy.sparse as sp

#: Seconds one kernel call takes at the reference speed (the lower
#: quartile of 300 calls on a 2-vCPU Intel Xeon VM at 2.1 GHz).  It only
#: fixes the scale.
REFERENCE_S = 0.0046


class HostSpeed:
    """Times the fixed kernel; keeps every factor it measured."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.random(1 << 20)
        self._index = rng.integers(0, 1 << 20, 100_000)
        n, per_row = 20_000, 5
        rows = np.repeat(np.arange(n), per_row)
        cols = rng.integers(0, n, n * per_row)
        self._matrix = sp.csr_matrix(
            (rng.random(n * per_row), (rows, cols)), shape=(n, n)
        ) + sp.eye(n, format="csr")
        self._vector = np.ones(n)
        self.factors: List[float] = []
        self.factor()  # first call pays for page faults and lazy set-up
        self.factors.clear()

    def _kernel(self) -> None:
        total = 0
        for i in range(30_000):
            total += i * i
        self._table[self._index].sum()
        x = self._vector
        for _ in range(10):
            x = self._matrix @ x

    def factor(self) -> float:
        """Kernel seconds now / reference seconds (>1 on a slow spell),
        the median of three calls: one 5 ms call is itself noisy."""
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            seconds.append(time.perf_counter() - start)
        value = statistics.median(seconds) / REFERENCE_S
        self.factors.append(value)
        return value

    def summary(self) -> str:
        if not self.factors:
            return "host speed factor: not measured"
        return (f"host speed factor: median {statistics.median(self.factors):.3f},"
                f" range {min(self.factors):.3f}-{max(self.factors):.3f},"
                f" {len(self.factors)} samples")
