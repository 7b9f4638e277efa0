"""A fixed reference computation that measures how fast the host runs now.

On a shared host the same operation list takes from one to two times as long
from one minute to the next, with no steal time: the processor itself runs
slower while neighbours are busy, and the process's CPU time grows with its
wall time. The benchmark therefore runs this block after every operation
and reports cycle time in units of the block's time measured in the same
run; a host slow-down stretches both alike and largely cancels in the
ratio.

The block imitates the three kinds of work in the operation lists, in about
equal shares: interpreter-bound scalar code with many small numpy calls
(the sampler at small p), vectorised pairwise arithmetic (the density
kernel at p = 25) and dense LAPACK (the Jacobian's SVD). Its inputs are
fixed, so its work does not depend on the workload seed or on skewspec.
"""

from __future__ import annotations

import math
import time

import numpy as np


class ReferenceBlock:
    """The reference computation with its inputs, built once per run."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20231222)
        self.small = rng.uniform(0.5, 2.0, size=(64, 2))
        self.points = rng.uniform(0.5, 4.0, size=(25, 2))
        self.dense = rng.standard_normal((96, 96))

    def run(self) -> float:
        """Do the block's work once; returns a checksum so nothing is skipped."""
        total = 0.0
        # interpreter-bound: scalar Metropolis-like steps over tiny arrays
        x = 1.0
        for i in range(7500):
            row = self.small[i % 64]
            x = 0.5 * x + math.log(1.0 + row[0] * row[1]) + float(np.sum(row * row))
        total += x
        # vectorised pairwise terms, as in the density kernel
        px, py = self.points[:, 0], self.points[:, 1]
        for _ in range(750):
            dx = px[:, None] - px[None, :]
            dy = py[:, None] - py[None, :]
            sx = px[:, None] + px[None, :]
            sy = py[:, None] + py[None, :]
            prod = (dx * dx + dy * dy + 1.0) * (sx * sx + sy * sy)
            total += float(np.sum(np.log(prod[np.triu_indices(25, 1)])))
        # dense LAPACK
        for _ in range(60):
            total += float(np.linalg.svd(self.dense, compute_uv=False)[0])
        return total

    def timed(self) -> float:
        """Seconds one run of the block takes now."""
        start = time.perf_counter()
        checksum = self.run()
        seconds = time.perf_counter() - start
        if not math.isfinite(checksum):
            raise ArithmeticError("reference block produced a non-finite checksum")
        return seconds

    def sample(self, budget_s: float) -> list[float]:
        """Run the block until its runs add up to ``budget_s``, at least once."""
        times = [self.timed()]
        while sum(times) < budget_s:
            times.append(self.timed())
        return times
