"""The hot quadrature kernels: cached Gauss-Legendre rules and ``phase_sum``.

``phase_sum`` forms ``sum_j c[j] e^{i k[j] x}`` at every x.  It picks one of
two paths from the x it is given:

- direct: one exponential per (x, k) pair, then a matrix-vector product;
- factored, for n >= 32 evenly spaced x: with b = ceil(sqrt(n)) and step h,
  the point x[pb + q] is x[pb] + q h, so

      e^{i k x[pb + q]} = e^{i k x[pb]} e^{i k q h}.

  The (ceil(n/b), n_k) head matrix A = c * e^{i x[::b] k} and the (b, n_k)
  step matrix B = e^{i h arange(b) k} cost (ceil(n/b) + b) exponentials per
  node, about 2 sqrt(n) instead of n, and u = (A @ B^T).ravel()[:n] is one
  matrix product.

A batch is evenly spaced when every x lies within 4 eps max|x| of its
blocked position x[pb] + q h; the phase error this admits is no larger than
the rounding of k*x that direct evaluation makes.  Batches whose step factor
could grow past e^64 (|Im k| b |h| large) stay direct, so neither factor
overflows unless the product itself is near overflow.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss as _leggauss

USING_NUMBA = False  # always False; perfbench records it and imports phase_sum from here

# complex entries per chunk of exponentials: 8 MB
_CHUNK = 524288
# fewest x worth factoring; below it the b + n/b exponentials save little
_FACTOR_MIN = 32
_FACTOR_SLACK = 4 * np.finfo(np.float64).eps
# largest |Im k| * b * |h|: bounds the step factor's magnitude to e^{+-64}
_FACTOR_GROWTH = 64.0


@lru_cache(maxsize=64)
def cached_leggauss(order: int):
    """Gauss-Legendre nodes/weights, cached (leggauss is O(order^2))."""
    x, w = _leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def phase_sum(x, k, c):
    """Return ``sum_j c[j] * exp(i k[j] x)`` for every x."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    k = np.ascontiguousarray(k, dtype=np.complex128)
    c = np.ascontiguousarray(c, dtype=np.complex128)
    block = _block_step(x)
    if block is not None and k.size:
        b, h = block
        if float(np.max(np.abs(k.imag))) * b * abs(h) <= _FACTOR_GROWTH:
            return _factored(x, k, c, b, h)
    return _direct(x, k, c)


def _block_step(x):
    """``(b, h)`` when x is evenly spaced in blocks of b = ceil(sqrt(n)) to
    within 4 eps max|x|, else None."""
    n = x.size
    if n < _FACTOR_MIN:
        return None
    b = math.isqrt(n - 1) + 1
    h = float(x[-1] - x[0]) / (n - 1)
    blocked = np.repeat(x[::b], b)[:n] + (np.arange(n) % b) * h
    # written so that NaN or inf in x fails the test
    if not float(np.max(np.abs(x - blocked))) <= _FACTOR_SLACK * float(np.max(np.abs(x))):
        return None
    return b, h


def _direct(x, k, c):
    # chunked so the (nx, nk) phase matrix never exceeds ~8 MB
    out = np.empty(x.size, dtype=np.complex128)
    step = max(1, _CHUNK // max(1, k.size))
    for i in range(0, x.size, step):
        xs = x[i : i + step]
        out[i : i + step] = np.exp(1j * np.multiply.outer(xs, k)) @ c
    return out


def _factored(x, k, c, b, h):
    heads = x[::b]
    steps = h * np.arange(b)
    out = np.zeros(heads.size * b, dtype=np.complex128)
    # chunked over k so A and B together never exceed ~8 MB
    step = max(1, _CHUNK // (heads.size + b))
    for i in range(0, k.size, step):
        ks = k[i : i + step]
        a = np.exp(1j * np.multiply.outer(heads, ks)) * c[i : i + step]
        e = np.exp(1j * np.multiply.outer(steps, ks))
        out += (a @ e.T).ravel()
    return out[: x.size]
