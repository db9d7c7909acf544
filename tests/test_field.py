"""The nodal cache of SolutionField: bounded, oldest insertion evicted first,
and a rebuilt entry bit-identical to the evicted one."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import fokas_heat as fh
from fokas_heat import _field


def _field_one_layer():
    left = fh.ExpPolynomial((fh.ExpPolyTerm(1.0, 1, 2.0),), side="left")
    return fh.solve(fh.two_semi_infinite(0.8, 1.7, left_initial=left))


def test_cache_is_bounded_and_rebuilds_identically():
    cap = _field._CACHE_ENTRIES
    sol = _field_one_layer()
    ts = [float(t) for t in np.linspace(0.05, 0.5, cap + 10)]
    x = np.array([-1.3, -0.5, -0.02])
    first = [sol.values_in_layer(0, x, t) for t in ts]
    assert len(sol._cache) == cap
    # the oldest insertions went first
    assert {key[1] for key in sol._cache} == set(ts[10:])
    again = sol.values_in_layer(0, x, ts[0])
    assert np.array_equal(again, first[0])
    times = {key[1] for key in sol._cache}
    assert len(sol._cache) == cap and ts[0] in times and ts[10] not in times


def test_cache_bound_holds_under_threads(monkeypatch):
    """More threads than cores insert and evict at once, switching often.  The
    build is stubbed to one node so that inserts and evictions dominate: an
    unlocked eviction deletes one key twice (KeyError), iterates a dict that
    another thread resizes (RuntimeError) or overshoots the cap."""
    monkeypatch.setattr(_field, "_CACHE_ENTRIES", 8)
    sol = _field_one_layer()
    monkeypatch.setattr(sol, "_build_nodal", lambda idx, t, span, order: [(np.array([1j]), np.array([t + 0j]), 0.0)])

    def fill(j):
        for i in range(1000):
            sol._nodal(0, 1.0 + j + 1e-4 * i, 1.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(fill, j) for j in range(8)]
            for future in futures:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert len(sol._cache) == 8
