import math

import numpy as np
import pytest

from fokas_heat.contours import (
    RADIUS_CAP,
    build_contour,
    real_line_contour,
    truncation_radius,
)
from fokas_heat.errors import TimeTooSmall

GAUSS_EXACT = math.sqrt(math.pi) * math.exp(-0.25)  # int_R e^{ik-k^2} dk


def half_integral(contour, f):
    """Full-contour integral of f with f(-conj k) = conj f(k), from the
    stored Re k > 0 half: 2 Re of the half sum (weights already doubled)."""
    return float(np.real(np.sum(contour.weights * f(contour.nodes))))


def test_truncation_radius_formula():
    # R solves (sigma R)^2 t cos(2 theta) = ln(1e16) when x_scale = 0
    R = truncation_radius(0.02, 0.02)
    expected = math.sqrt(math.log(1e16) / (0.02**2 * 0.02 * math.cos(math.pi / 4)))
    assert R == pytest.approx(expected, rel=1e-13)


def test_upper_contour_geometry():
    c = build_contour("upper", 1.0, 1.0, avoid_origin=True, r=1.0)
    assert np.all(np.imag(c.nodes) > 0)
    assert np.all(np.real(c.nodes) > 0)
    assert np.min(np.abs(c.nodes)) == pytest.approx(1.0, rel=1e-12)


def test_gaussian_deformation_upper():
    c = build_contour("upper", 1.0, 1.0, x_scale=1.0, avoid_origin=True, r=1.0)
    val = half_integral(c, lambda k: np.exp(1j * k - k**2))
    assert val == pytest.approx(GAUSS_EXACT, abs=1e-12)


def test_gaussian_deformation_lower_is_minus_real_line():
    c = build_contour("lower", 1.0, 1.0, x_scale=1.0, avoid_origin=True, r=1.0)
    assert np.all(np.real(c.nodes) > 0) and np.all(np.imag(c.nodes) < 0)
    val = half_integral(c, lambda k: np.exp(-1j * k - k**2))
    assert val == pytest.approx(-GAUSS_EXACT, abs=1e-12)


def test_real_line_gaussian():
    rl = real_line_contour(1.0, 1.0, x_scale=1.0)
    assert np.all(rl.nodes.real >= 0) and np.all(rl.nodes.imag == 0)
    val = half_integral(rl, lambda k: np.exp(1j * k - k**2))
    assert val == pytest.approx(GAUSS_EXACT, abs=1e-12)


def test_arc_radius_independence():
    vals = []
    for r in (0.5, 1.0, 2.0):
        c = build_contour("upper", 1.0, 1.0, x_scale=1.0, avoid_origin=True, r=r)
        vals.append(half_integral(c, lambda k: 1j * np.exp(-(k**2)) / k))
    assert vals[0] == pytest.approx(vals[1], abs=1e-10)
    assert vals[2] == pytest.approx(vals[1], abs=1e-10)
    # the arc'd integral of e^{-k^2}/k picks up the half-residue -i pi
    assert vals[1] == pytest.approx(math.pi, abs=1e-10)


def test_node_doubling_geometric_convergence():
    f = lambda k: np.exp(1j * k - k**2)
    contours = [build_contour("upper", 1.0, 1.0, x_scale=1.0, order=4 * 2**j) for j in range(4)]
    # same panels at every order: only the per-panel node count doubles
    assert all(c.pieces == contours[0].pieces for c in contours)
    results = [half_integral(c, f) for c in contours]
    errs = [abs(r - GAUSS_EXACT) for r in results]
    # at least geometric decay over three doublings (until roundoff floor)
    for e1, e2 in zip(errs[:-1], errs[1:]):
        assert e2 <= 0.5 * e1 or e2 < 1e-13


def test_mirror_symmetry_of_contours():
    cu = build_contour("upper", 1.0, 0.7, x_scale=1.0)
    cl = build_contour("lower", 1.0, 0.7, x_scale=1.0)
    f = lambda k: np.exp(-0.7 * k**2) / (k**2 + 4)  # satisfies f(conj k) = conj f(k)
    up = np.sum(cu.weights * f(cu.nodes))
    low = np.sum(cl.weights * f(cl.nodes))
    assert low == pytest.approx(-np.conj(up), abs=1e-13)


def test_time_too_small():
    with pytest.raises(TimeTooSmall) as err:
        build_contour("upper", 0.02, 1e-9)
    assert err.value.min_time is not None
    assert err.value.min_time > 0
    # the reported admissible time works
    build_contour("upper", 0.02, 2.0 * err.value.min_time, max_radius=RADIUS_CAP)


def test_min_radius_floor():
    c = build_contour("upper", 1.0, 100.0, min_radius=50.0)
    assert c.truncation_radius >= 50.0
    # arc stays tied to the small Gaussian radius
    assert c.arc_radius < 1.0


def test_arc_radius_default_is_largest_admissible():
    R_gauss = truncation_radius(1.0, 0.05)
    c = build_contour("upper", 1.0, 0.05)
    assert c.arc_radius == pytest.approx(R_gauss / 3.0, rel=1e-15)
    assert build_contour("upper", 1.0, 0.05, r=1e6).arc_radius == c.arc_radius
    assert build_contour("upper", 1.0, 0.05, r=0.5).arc_radius == 0.5
    assert build_contour("upper", 1.0, 0.05, avoid_origin=False).arc_radius == 0.0
