"""Machine-speed calibration kernel.

The kernel imports nothing from ``ltisec`` and must never change: its
nominal time below was measured once for exactly this code, and every
calibrated figure is an in-process time multiplied by
``NOMINAL_MS / measured kernel time``.  It mixes the three kinds of work the
workloads spend their time on: small LAPACK factorizations, per-call Python
and numpy overhead on tiny arrays, and block copies into a dense matrix.
It is single-threaded as long as the BLAS thread count is 1, which the
benchmark fixes before numpy is imported.
"""

from __future__ import annotations

import time

import numpy as np

# The reference speed: on the 2-CPU x86_64 sandbox the benchmark was built
# on (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread) one call
# took 0.7 ms or 1.2 ms, depending on load from other tenants, with a median
# near 1.0 ms.
NOMINAL_MS = 1.0

_N = 40
_A = np.cos(np.arange(_N * _N, dtype=float).reshape(_N, _N) * 0.37) + 3.0 * np.eye(_N)
_SMALL = _A[:4, :4].copy()
_BLOCKS = 24


def kernel() -> float:
    """One fixed unit of work; returns a value so nothing is optimized away."""
    acc = 0.0
    acc += float(np.linalg.svd(_A, compute_uv=False)[-1])
    x = np.ones(4)
    for _ in range(120):
        x = _SMALL @ x
        x = x / float(np.linalg.norm(x))
    acc += float(x[0])
    big = np.zeros((3 * _BLOCKS, 4 * _BLOCKS))
    blk = _A[:3, :4]
    for i in range(_BLOCKS):
        for j in range(i + 1):
            big[3 * i : 3 * i + 3, 4 * j : 4 * j + 4] = blk
    return acc + float(big[-1, 0])


def measure_ms() -> float:
    """Wall time of one kernel call, in milliseconds."""
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) * 1e3
