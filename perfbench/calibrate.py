"""A fixed numpy kernel that measures how fast the machine is right now.

On a shared machine the speed of one core drifts by 20-40% over tens of
seconds to minutes, as other tenants come and go; that drift, not the
program, dominated the run-to-run spread of raw solve times.  The kernel
runs after every set-up and every solve, and each time is reported scaled
by NOMINAL_S / (mean kernel time before and after it): seconds on the
machine at the speed at which the kernel takes NOMINAL_S.  The kernel uses
only numpy, never the package, so a change to the package cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# median kernel time on the reference machine, a 2-vCPU Intel Xeon VM at
# 2.1 GHz with one OpenBLAS thread
NOMINAL_S = 0.12


class Calibration:
    """The kernel mixes the solve loop's three kinds of work: passes over a
    tall 16 MB matrix (eight times the L2 cache), products with a p x p
    matrix, and p x p factorizations."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.tall = rng.standard_normal((40_000, 50))
        self.square = rng.standard_normal((500, 500))
        self.spd = self.square @ self.square.T + 500.0 * np.eye(500)
        self.x_tall = rng.standard_normal(50)
        self.x_square = rng.standard_normal(500)
        self.times: list[float] = []

    def measure(self) -> None:
        tic = time.perf_counter()
        for _ in range(36):
            self.tall.T @ (self.tall @ self.x_tall)
        for _ in range(200):
            self.square @ self.x_square
        for _ in range(8):
            np.linalg.cholesky(self.spd)
        self.times.append(time.perf_counter() - tic)

    def rescale(self) -> float:
        """Run the kernel again and return the scale for the work done since
        its previous run."""
        self.measure()
        return NOMINAL_S / (0.5 * (self.times[-2] + self.times[-1]))
