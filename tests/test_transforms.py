import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

import fokas_heat as fh
from fokas_heat.errors import TransformValidityError, WrongDecaySign
from fokas_heat.transforms import (
    ENTIRE,
    em1,
    erf_real,
    halfline_transform,
    interval_transform,
    time_transform_constant,
    transform_of,
)


def brute_halfline(src, k, cut=60.0):
    """Adaptive-panel quadrature of the defining integral on a truncated line."""
    if src.side == "left":
        lo, hi = src.endpoint - cut / min(abs(complex(t.rate).real) for t in src.terms), src.endpoint
    else:
        lo, hi = src.endpoint, src.endpoint + cut / min(abs(complex(t.rate).real) for t in src.terms)
    xg, wg = leggauss(24)
    total = 0.0 + 0.0j
    edges = np.linspace(lo, hi, 400)
    for e0, e1 in zip(edges[:-1], edges[1:]):
        xs = 0.5 * (e0 + e1) + 0.5 * (e1 - e0) * xg
        vals = np.asarray(src(xs), dtype=complex)
        total += np.sum(0.5 * (e1 - e0) * wg * np.exp(-1j * k * xs) * vals)
    return total


def test_halfline_unit_exponential():
    src = fh.ExpPolynomial((fh.ExpPolyTerm(1.0, 0, 1.0),), side="left")
    T = halfline_transform(src)
    assert T(0.0) == pytest.approx(1.0)


def test_halfline_matches_quadrature_left():
    src = fh.ExpPolynomial((fh.ExpPolyTerm(1.0, 2, 625.0),), side="left")
    T = halfline_transform(src)
    for k in (0.0, 3.7, 120.0, 40.0 + 15.0j):
        expected = 2.0 / (625 - 1j * k) ** 3
        assert T(k) == pytest.approx(expected, rel=1e-12)
    k = 11.0
    assert T(k) == pytest.approx(brute_halfline(src, k), rel=1e-9)


def test_halfline_matches_quadrature_right():
    src = fh.ExpPolynomial((fh.ExpPolyTerm(1.0, 2, -900.0),), side="right")
    T = halfline_transform(src)
    k = 17.0
    assert T(k) == pytest.approx(2.0 / (900 + 1j * k) ** 3, rel=1e-12)
    assert T(k) == pytest.approx(brute_halfline(src, k), rel=1e-9)


def test_halfline_odd_power_sign():
    # int_{-inf}^0 x e^{2x} e^{-ikx} dx at k=0 is -1/4 (negative x weights)
    src = fh.ExpPolynomial((fh.ExpPolyTerm(1.0, 1, 2.0),), side="left")
    T = halfline_transform(src)
    assert T(0.0) == pytest.approx(-0.25, rel=1e-13)
    assert T(3.0) == pytest.approx(brute_halfline(src, 3.0), rel=1e-10)


def test_halfline_shifted_endpoint():
    src = fh.ExpPolynomial((fh.ExpPolyTerm(1.0, 1, 2.0),), side="left", endpoint=-0.6)
    T = halfline_transform(src)
    for k in (0.0, 2.5, 1.0 + 0.8j):
        assert T(k) == pytest.approx(brute_halfline(src, k), rel=1e-9)


def test_wrong_decay_sign_rejected():
    with pytest.raises(WrongDecaySign):
        fh.ExpPolynomial((fh.ExpPolyTerm(1.0, 0, -1.0),), side="left")
    with pytest.raises(WrongDecaySign):
        fh.ExpPolynomial((fh.ExpPolyTerm(1.0, 0, 1.0),), side="right")


def test_validity_region_enforced():
    src = fh.ExpPolynomial((fh.ExpPolyTerm(1.0, 0, 1.0),), side="left")
    T = halfline_transform(src)
    T(0.3 + 0.2j)  # upper half-plane fine
    with pytest.raises(TransformValidityError):
        T(0.3 - 0.2j)


def test_interval_transform_constant_profile():
    b = 2.0
    src = fh.SampledInterval(lambda x: np.ones_like(x), 0.0, b)
    T = interval_transform(src)
    assert T(0.0) == pytest.approx(b, rel=1e-13)
    for k in (0.7, 4.0 - 1.2j, 30.0):
        expected = (1 - np.exp(-1j * k * b)) / (1j * k)
        assert T(k) == pytest.approx(expected, rel=1e-11)


def test_interval_transform_sine_profile():
    src = fh.SampledInterval(lambda x: np.sin(np.pi * x), 0.0, 1.0)
    T = interval_transform(src)
    assert T(0.0) == pytest.approx(2.0 / np.pi, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    kr=st.floats(-20, 20),
    ki=st.floats(0, 5),
    c1=st.floats(-2, 2),
    c2=st.floats(-2, 2),
)
def test_conjugate_symmetry_and_linearity(kr, ki, c1, c2):
    """Hermitian symmetry transform(-conj k) = conj transform(k) for real
    data (the reflection that stays inside the validity region); linearity
    exact for the closed-form family."""
    s1 = fh.ExpPolynomial((fh.ExpPolyTerm(1.0, 1, 2.0),), side="left")
    s2 = fh.ExpPolynomial((fh.ExpPolyTerm(1.0, 0, 3.5),), side="left")
    both = fh.ExpPolynomial(
        (fh.ExpPolyTerm(c1, 1, 2.0), fh.ExpPolyTerm(c2, 0, 3.5)), side="left"
    ) if c1 != 0 and c2 != 0 else None
    T1, T2 = halfline_transform(s1), halfline_transform(s2)
    k = kr + 1j * ki
    assert np.conj(T1(k)) == pytest.approx(T1(-np.conj(k)), rel=1e-12, abs=1e-300)
    if both is not None:
        Tb = halfline_transform(both)
        assert Tb(k) == pytest.approx(c1 * T1(k) + c2 * T2(k), rel=1e-12, abs=1e-250)


def test_time_transform_constant_examples():
    assert time_transform_constant(1.0, 0.0, 2.0) == pytest.approx(2.0)
    gamma = 0.37
    assert time_transform_constant(gamma, 1.0, 1.0) == pytest.approx(gamma * (math.e - 1), rel=1e-14)
    # series branch: value 1, omega = 1e-9, t = 1 is 1 + 5e-10 to first order
    v = time_transform_constant(1.0, 1e-9, 1.0)
    assert v == pytest.approx(1.0 + 5e-10, abs=1e-15)


def test_em1_series_branch_continuity():
    # the series/direct switch at |z| = 1e-4 must be seamless
    for z in (9.9e-5, 1.01e-4, 1e-4 * 1j, (7e-5) * (1 + 1j)):
        a = complex(em1(np.array([z]))[0])
        b = (np.exp(z) - 1) / z
        assert a == pytest.approx(b, rel=1e-12)


def test_boundary_data_scaled_transform():
    bd = fh.BoundaryData(((0.8, 0, 0.0), (0.5, 1, -2.0)))
    omega = np.array([0.3 + 0.1j, 4.0, 1e-6])
    t = 0.7
    # brute: e^{-wt} int_0^t e^{ws} f(s) ds
    ss = np.linspace(0, t, 20001)
    f = 0.8 + 0.5 * ss * np.exp(-2 * ss)
    for w, got in zip(omega, bd.scaled_time_transform(omega, t)):
        brute = np.trapezoid(np.exp(w * ss) * f, ss) * np.exp(-w * t)
        assert got == pytest.approx(brute, rel=5e-8)


def test_boundary_data_residual():
    bd = fh.BoundaryData(((0.8, 0, 0.0), (0.5, 1, -2.0)))
    res = bd.residual()
    assert res.limit_at_infinity() == pytest.approx(0.0)
    assert bd.limit_at_infinity() == pytest.approx(0.8)


def test_erf_values():
    assert erf_real(0.0) == 0.0
    assert erf_real(10.0) == pytest.approx(1.0, abs=1e-15)
    assert erf_real(1.0) == pytest.approx(0.8427007929497149, abs=1e-14)
    # high-order quadrature of the defining integral as the oracle
    xg, wg = leggauss(80)
    z = 1.3
    approx = 2 / math.sqrt(math.pi) * np.sum(wg * (z / 2) * np.exp(-((z / 2 + z / 2 * xg) ** 2)))
    assert erf_real(z) == pytest.approx(approx, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(z=st.floats(-6, 6))
def test_erf_odd_and_monotone(z):
    assert erf_real(z) + erf_real(-z) == pytest.approx(0.0, abs=1e-14)
    assert erf_real(z + 1e-3) >= erf_real(z)


def test_transform_of_zero_source():
    T = transform_of(None, (0.0, 1.0))
    assert T.validity == ENTIRE
    assert T(1.3) == 0.0


def test_quadrature_order_too_low():
    from fokas_heat.errors import QuadratureOrderTooLow

    wild = fh.SampledInterval(lambda x: np.sin(5e4 * x), 0.0, 1.0, order=64)
    with pytest.raises(QuadratureOrderTooLow):
        interval_transform(wild)


def test_interval_order_doubling_recovers_oscillatory():
    src = fh.SampledInterval(lambda x: np.sin(40 * x), 0.0, 1.0, order=16)
    T = interval_transform(src)  # doubles internally until stable
    k = 3.0
    exact = complex(
        (40 - 40 * np.cos(40) * np.exp(-1j * k) - 1j * k * np.sin(40) * np.exp(-1j * k))
        / (1600 - k**2)
    )
    assert T(k) == pytest.approx(exact, rel=1e-10)
