"""Machine-speed sampling, to take host drift out of the benchmark's times.

On a small shared host the speed of the CPU this process runs on drifts by
tens of percent within minutes, as other tenants load the host's cores,
caches and memory.  A fixed reference kernel that does the same kinds of
work as the workloads slows at the same moments, so its time measures the
drift.  Samples are taken in this process, from a ``SIGALRM`` handler: a
process on the other CPU does not see the same slow-downs.

The kernel reacts more strongly than a pass does.  Across runs on the
2-core machine the bounds were set on, log pass time moved by 0.36 to 0.72
times log kernel time (correlation 0.91 to 0.98), depending on the
workload; log set-up time moved by 1.0 times it (correlation 0.85).  So a
raw time ``t`` is reported as ``t * (NOMINAL_S / k) ** e``, with ``k`` the
median kernel time measured alongside it and ``e`` = 0.5 for passes and 1
for set-up (``catalog.py``; applied in ``run.py``).  The handler runs
between Python bytecodes, so a long NumPy/LAPACK call delays the next
sample.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp


#: Seconds between samples during a pass.
PERIOD_S = 0.3

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.random((96, 96)) + 96.0 * np.eye(96)
_SYMMETRIC = _MATRIX + _MATRIX.T
_NODES = np.linspace(0.0, 1.0, 33)
_TABLE = np.cos(np.add.outer(_NODES, 2.0 * _NODES))
#: 16 MB, four times the L2 cache of the machine the bounds were set on,
#: so that summing it reads from the shared cache and memory.
_STREAM = _RNG.random(2_000_000)


def _bilinear_rhs(_t, z):
    i = min(max(int(z[0] * 32), 0), 31)
    j = min(max(int(z[1] * 32), 0), 31)
    fx, fy = z[0] * 32 - i, z[1] * 32 - j
    g = ((1 - fx) * (1 - fy) * _TABLE[i, j] + fx * (1 - fy) * _TABLE[i + 1, j]
         + (1 - fx) * fy * _TABLE[i, j + 1] + fx * fy * _TABLE[i + 1, j + 1])
    return np.array([-z[1] * g, z[0] * g])


def reference_kernel() -> float:
    """About 8 ms of the workloads' kinds of work: interpreter loops, scalar
    NumPy calls, an adaptive ODE solve with a Python right-hand side, dense
    LAPACK solves and eigendecomposition, and a sum streamed from memory."""
    acc = 0.0
    for i in range(10_000):
        acc += i * i % 7
    for k in range(300):
        j = int(np.searchsorted(_NODES, 0.37 + k * 1e-3))
        acc += float(np.sin(_NODES[j])) * 0.5
    acc += float(solve_ivp(_bilinear_rhs, (0.0, 0.25), np.array([0.5, 0.3]),
                           method="RK45", rtol=1e-9, atol=1e-12).y[0, -1])
    for _ in range(6):
        acc += float(np.linalg.solve(_MATRIX, _MATRIX)[0, 0])
    acc += float(np.linalg.eigh(_SYMMETRIC)[0][0])
    return acc + float(_STREAM.sum())


def time_kernel() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


#: Untimed kernel runs before a set-up measurement: the first calls fill
#: caches and SciPy's lazy imports.
WARMUP_RUNS = 3


def kernel_median(count: int) -> float:
    """Median time of ``count`` back-to-back kernel runs, after
    ``WARMUP_RUNS`` untimed ones."""
    for _ in range(WARMUP_RUNS):
        reference_kernel()
    return statistics.median(time_kernel() for _ in range(count))


class Sampler:
    """Times the reference kernel every ``PERIOD_S`` seconds of wall time.

    ``start`` and ``stop`` bracket each timed interval; the samples of every
    interval are kept for :meth:`median`.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._spent = 0.0
        self._previous = signal.SIG_DFL

    def _tick(self, _signum, _frame) -> None:
        duration = time_kernel()
        self.samples.append(duration)
        self._spent += duration

    def start(self) -> None:
        self._spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Stop sampling; returns the seconds this interval's samples took."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return self._spent

    def median(self) -> float:
        """Median kernel time over every interval; timed once more if no
        interval was long enough to hold a sample."""
        if not self.samples:
            self.samples.append(time_kernel())
        return statistics.median(self.samples)
