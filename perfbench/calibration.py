"""Host-speed calibration for the benchmark's timings.

The machines this benchmark runs on share their cores with other
tenants, and a single-threaded solve runs up to 40% slower for minutes
at a time.  The benchmark therefore runs a fixed kernel before and
after every timed operation and scales the operation's time by
``REFERENCE_S / (mean of the two kernel times)``: the time the
operation would have taken at the host speed the reference was taken
at.  The kernel mixes what a conepath solve spends its time on (an
interpreted loop, small numpy operations, a sparse LU factor and solve)
and calls no conepath code, so a change to the program moves the
scaled times and never the kernel.
"""

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# About the kernel's median time on the 2-vCPU Intel Xeon VM that
# BASELINE.json was measured on (14.8 ms); it only fixes the unit of the
# scaled times.
REFERENCE_S = 0.015


class Calibration:
    """The fixed kernel; calling it returns its wall time in seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.w = rng.standard_normal(64)
        self.K = (sp.random(300, 300, density=0.02, random_state=1) + 10 * sp.identity(300)).tocsc()
        self.b = np.ones(300)

    def __call__(self):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += i * 0.5
        for _ in range(300):
            acc += float(np.sqrt(self.w * self.w + 1.0).sum())
        for _ in range(3):
            acc += float(splu(self.K).solve(self.b)[0])
        return time.perf_counter() - t0


def scale(before, after):
    """Factor that converts a time measured between two kernel runs."""
    return REFERENCE_S / (0.5 * (before + after))
