"""The hot quadrature kernels: cached Gauss-Legendre rules and ``phase_sum``."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss as _leggauss

USING_NUMBA = False  # always False; perfbench records it and imports phase_sum from here


@lru_cache(maxsize=64)
def cached_leggauss(order: int):
    """Gauss-Legendre nodes/weights, cached (leggauss is O(order^2))."""
    x, w = _leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def phase_sum(x, k, c):
    """Return ``sum_j c[j] * exp(i k[j] x)`` for every x."""
    # chunked so the (nx, nk) phase matrix never exceeds ~8 MB
    x = np.ascontiguousarray(x, dtype=np.float64)
    k = np.ascontiguousarray(k, dtype=np.complex128)
    c = np.ascontiguousarray(c, dtype=np.complex128)
    out = np.empty(x.size, dtype=np.complex128)
    step = max(1, 524288 // max(1, k.size))
    for i in range(0, x.size, step):
        xs = x[i : i + step]
        out[i : i + step] = np.exp(1j * np.multiply.outer(xs, k)) @ c
    return out
