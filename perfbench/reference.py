"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared virtual machine the speed of one core switches between states
up to 1.5x apart every few seconds, whatever the program does, so whole
runs of identical code differ by up to 40 % in wall time. The benchmark runs
this kernel between ops and divides each op's time by the speed the kernel
runs nearest to it measured: their median over REFERENCE_MS. A single kernel
run now and then reads several times too slow, so one run alone would
over-correct its neighbours. The kernel is frozen here and uses no graspkit
code, so a change to graspkit cannot move it. Its mix follows graspkit's hot
paths: a kd-tree build and queries, a Python loop of small numpy ops with a
lexsort per point, and small dense SVDs.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from scipy.spatial import cKDTree

# Kernel time in the fast state of a 2-vCPU x86_64 Xeon VM at 2.0 GHz (Python 3.11,
# numpy 2.4, scipy 1.17); scaled times read as milliseconds on that machine.
REFERENCE_MS = 10.0
INTERVAL_S = 0.5  # run the kernel after the op that ends this long after the last run

_rng = np.random.default_rng(20250427)
_POINTS = _rng.standard_normal((600, 3))
_MATRIX = _rng.standard_normal((6, 6))


def kernel_ms() -> float:
    """Wall time of one run of the reference kernel, in ms."""
    start = perf_counter()
    tree = cKDTree(_POINTS)
    dist, _ = tree.query(_POINTS, k=9)
    hoods = tree.query_ball_point(_POINTS, dist[:, -1] * (1.0 + 1e-9))
    for i, hood in enumerate(hoods):
        cand = np.asarray(hood, dtype=np.intp)
        diff = _POINTS[cand] - _POINTS[i]
        d2 = diff[:, 0] ** 2 + diff[:, 1] ** 2 + diff[:, 2] ** 2
        np.lexsort((cand, d2))
    for _ in range(50):
        np.linalg.svd(_MATRIX, compute_uv=False)
    return (perf_counter() - start) * 1e3


def speed(samples_ms: list[float]) -> float:
    """Slowdown of the machine against the reference: 1.0 at REFERENCE_MS, 2.0 at half speed."""
    return statistics.median(samples_ms) / REFERENCE_MS
