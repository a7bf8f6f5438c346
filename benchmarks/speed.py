"""A fixed calibration kernel that tracks how fast the box runs right now.

The benchmark box is a 2-vCPU VM whose speed drifts with the load other
tenants put on the host: 10-second medians of one fixed kernel moved by up
to 1.7x within two minutes, with no steal time visible in the guest.  A
job's wall time is therefore also reported scaled to the box's nominal
speed, using this kernel timed right before and right after the job.

Contention does not slow every kind of work alike, so the kernel is built
from parts, and each workload names the parts that resemble what its jobs
spend their time on (``workloads.CALIBRATION``).  The parts know nothing
of fraclap, so a change to fraclap cannot move them.
"""

from __future__ import annotations

import time

import numpy as np


def _loop(rng):
    def run():
        acc = 0
        for i in range(40000):
            acc += i * i

    return run


def _longdouble(rng):
    grid = np.arange(120, dtype=np.longdouble)
    angles = np.outer(grid, grid) * np.longdouble(0.01)
    return lambda: np.cos(angles)


def _eigh(rng):
    sym = rng.random((160, 160))
    sym = sym + sym.T
    return lambda: np.linalg.eigh(sym)


def _matmul(rng):
    complex_ = np.exp(1j * rng.random((200, 400)))
    vectors = rng.random((200, 40))
    return lambda: vectors.T @ complex_


def _stream(rng):
    wide = np.exp(1j * rng.random((401, 801)))
    row = rng.random(401)

    def run():
        for _ in range(20):
            row @ wide

    return run


# part -> (builder, median time on the quiet 2-vCPU Xeon box the baseline was
# measured on); scaled times are seconds at that speed.
PARTS = {
    "loop": (_loop, 2.3e-3),  # interpreted integer loop
    "longdouble": (_longdouble, 2.0e-3),  # extended-precision cosines, 120 x 120
    "eigh": (_eigh, 2.2e-3),  # symmetric eigensolve, dim 160
    "matmul": (_matmul, 0.5e-3),  # small complex matrix product, cache-resident
    "stream": (_stream, 3.75e-3),  # 20 vector products with a 5 MB complex matrix
}


class Calibration:
    def __init__(self, parts):
        rng = np.random.default_rng(0)
        self._runs = [PARTS[p][0](rng) for p in parts]
        self.nominal_s = sum(PARTS[p][1] for p in parts)

    def seconds(self) -> float:
        """Wall time of one pass over the parts."""
        start = time.perf_counter()
        for run in self._runs:
            run()
        return time.perf_counter() - start

    def factor(self, before: float, after: float) -> float:
        """How much slower than nominal the box ran between two kernel timings."""
        return 0.5 * (before + after) / self.nominal_s
