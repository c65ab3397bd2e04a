"""Gauge how fast the host runs Python at the moment, to scale op times.

On a shared host the same Python work takes a varying time: other tenants
slow this core down, for seconds to minutes at a time, by 30-70%.  That
drift is far larger than the bounds the benchmark must hold, so every
timed op is bracketed by a short fixed kernel and its time is scaled by
``REFERENCE_S / kernel_time``: op times are reported in milliseconds at
the speed where the kernel takes REFERENCE_S.  The kernel is a frozen copy
of the arithmetic sp4mono spends its time on (4x4 integer products built
as tuples, and Fraction arithmetic), so it slows down with the host the way
the ops do, and it does not change when the package does.

REFERENCE_S is the kernel's time on an idle core of the machine the
benchmark was written on (an x86-64 Intel Xeon, Python 3.11), so there
scaled and wall-clock times agree when the host is quiet.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 125e-6
REPEATS = 3

_A = ((2, -1, 0, 3), (1, 4, -2, 0), (0, 1, 5, -1), (-3, 0, 1, 2))
_B = ((1, 0, 2, -1), (0, 3, -1, 1), (4, -2, 1, 0), (1, 1, 0, 2))
_Q = (Fraction(3, 7), Fraction(-5, 11), Fraction(2, 13), Fraction(9, 17))


def _kernel():
    cols = tuple(zip(*_B))
    m = _A
    for _ in range(6):
        m = tuple(tuple(sum(a * b for a, b in zip(r, c)) % 65521 for c in cols) for r in m)
    q = tuple(sum(x * y for x, y in zip(_Q, row)) for row in m)
    return m, q


def kernel_seconds() -> float:
    """The fastest of REPEATS timed runs of the kernel."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(REPEATS):
        start = clock()
        _kernel()
        best = min(best, clock() - start)
    return best


def scale(seconds: float, before: float, after: float) -> float:
    """An op time scaled to reference speed from kernel times around it."""
    return seconds * REFERENCE_S * 2 / (before + after)
