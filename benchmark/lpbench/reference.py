"""A fixed reference kernel that tracks how fast the host runs right now.

The benchmark's host is a VM on a shared machine whose speed swings by 30%
and more over minutes, as neighbours come and go, and by up to twice on
syscall-heavy work such as imports. Wall times taken minutes apart then
differ by more than any change worth measuring. So every timing metric is
corrected towards a nominal host speed: the run times this kernel next to the
program's own work, and scales each wall time by the square root of
``NOMINAL_S`` over the kernel's median time in the same phase.

The root, not the full ratio, because the workloads follow the host less
closely than the kernel does. Over 40 runs on the tuning host, when the
kernel took a quarter less time than usual, the oracle_verify rounds took 18%
less and their 90th percentile 10% less, while detection and recognition
steps followed the kernel about one for one. The full ratio then
over-corrected the oracle rounds past the noise it removed elsewhere; the root
takes out at least half of a host swing on every workload and over-corrects
none.

The kernel is the benchmark's own code and calls nothing in lpcore, so no
change to lpcore moves it. It mixes what lpcore's hot paths are made of:
scalar Python float arithmetic with dict and list traffic, and numpy
operations on arrays of a few thousand elements.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# median kernel time on the 2-vCPU Xeon VM the benchmark was tuned on
NOMINAL_S = 0.0075
# how far a wall time follows the kernel's time (see above)
ELASTICITY = 0.5
MAX_GAP_S = 0.25  # most reference time spent between two steps

_A = np.random.default_rng(0).random((4096, 8))
_B = np.random.default_rng(1).random((8, 3))


def kernel() -> float:
    total = 0.0
    table: dict[int, float] = {}
    for i in range(20_000):
        total += math.sqrt(i) * 0.5
        table[i & 255] = total
    for _ in range(40):
        x = _A @ _B
        y = np.maximum(_A[:, :3], x)
        total += float(np.abs(y - x).sum())
    return total


class Reference:
    """Kernel times, sampled in proportion to the work they sit next to."""

    def __init__(self, share: float = 0.05):
        self.share = share
        self.owed = 0.0
        self.times: list[float] = []

    def sample(self, beside_s: float | None = None) -> None:
        """Run the kernel for ``share`` of the work timed since the last call.

        Without ``beside_s`` the kernel runs once. Time owed or overspent
        carries over, so short steps get a kernel run every few steps.
        """
        if beside_s is None:
            self.owed = max(self.owed, 1e-9)
        else:
            self.owed = min(MAX_GAP_S, self.owed + self.share * beside_s)
        while self.owed > 0.0:
            start = time.perf_counter()
            kernel()
            took = time.perf_counter() - start
            self.times.append(took)
            self.owed -= took

    def median_s(self) -> float:
        return statistics.median(self.times)

    def scale(self) -> float:
        """Factor taking a wall time towards the nominal host speed."""
        return (NOMINAL_S / self.median_s()) ** ELASTICITY
