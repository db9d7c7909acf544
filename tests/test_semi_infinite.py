import math

import numpy as np
import pytest

import fokas_heat as fh
from fokas_heat import _field
from fokas_heat._field import Numerics
from fokas_heat.oracles import heat_kernel_whole_line
from fokas_heat.solver_semi_infinite import solve_two_semi_infinite


def test_zero_data_zero_everywhere():
    cfg = fh.two_semi_infinite(1.0, 2.0)
    sol = solve_two_semi_infinite(cfg)
    for x, t in ((-0.3, 0.1), (0.4, 0.1), (0.0, 1.0)):
        assert sol.value(x, t) == pytest.approx(0.0, abs=1e-14)


def test_weighted_average_limit():
    # u0 = gamma on each side; sigma = (1, 3), gamma = (0, 1) -> 0.75 at the interface
    cfg = fh.two_semi_infinite(1.0, 3.0, gamma_left=0.0, gamma_right=1.0)
    sol = solve_two_semi_infinite(cfg)
    assert sol.value(0.0, 1e3) == pytest.approx(0.75, abs=1e-9)


def test_sample_carries_layer_tag(generic_two_semi):
    sol = solve_two_semi_infinite(generic_two_semi)
    s = sol.sample(-0.5, 0.2)
    assert s.layer_index == 0 and s.x == -0.5 and s.t == 0.2
    assert sol.sample(0.5, 0.2).layer_index == 1


def test_interface_continuity_and_flux(generic_two_semi):
    cfg = generic_two_semi
    sol = solve_two_semi_infinite(cfg)
    for t in (0.05, 0.13, 0.8):
        ul = sol.values_in_layer(0, np.array([0.0]), t)[0]
        ur = sol.values_in_layer(1, np.array([0.0]), t)[0]
        scale = max(1.0, abs(ul))
        assert abs(ul - ur) < 1e-8 * scale
        fl = cfg.sigmas[0] ** 2 * sol.derivative(0.0, t, layer=0)
        fr = cfg.sigmas[1] ** 2 * sol.derivative(0.0, t, layer=1)
        assert fl == pytest.approx(fr, rel=1e-4)


def test_dual_path_agreement(generic_two_semi):
    st = solve_two_semi_infinite(generic_two_semi)
    sl = solve_two_semi_infinite(generic_two_semi, path="linear_solve")
    xs = np.array([-1.2, -0.4, -0.05, 0.0, 0.05, 0.6, 1.5])
    for t in (0.05, 0.13):
        assert np.max(np.abs(st.values(xs, t) - sl.values(xs, t))) < 1e-10


def test_whole_line_reduction():
    # equal sigmas with decaying data reduce to the whole-line heat kernel
    left = fh.ExpPolynomial((fh.ExpPolyTerm(1.0, 1, 2.0), fh.ExpPolyTerm(0.5, 0, 3.0)), side="left")
    right = fh.ExpPolynomial((fh.ExpPolyTerm(-0.7, 2, -1.5),), side="right")
    cfg = fh.two_semi_infinite(1.3, 1.3, left_initial=left, right_initial=right)
    sol = solve_two_semi_infinite(cfg)
    for t in (0.07, 0.4):
        for x in (-1.5, -0.2, 0.0, 0.3, 2.0):
            hk = heat_kernel_whole_line(left, right, 1.3, x, t)
            assert sol.value(x, t) == pytest.approx(hk, abs=1e-8)


def test_mirror_symmetry(generic_two_semi):
    cfg = generic_two_semi
    sol = solve_two_semi_infinite(cfg)
    msol = solve_two_semi_infinite(fh.mirrored(cfg))
    xs = np.array([-1.0, -0.2, 0.0, 0.35, 1.7])
    t = 0.21
    np.testing.assert_allclose(sol.values(xs, t), msol.values(-xs, t), atol=1e-10)


def test_large_time_pointwise_limit(generic_two_semi):
    """Pointwise approach to the weighted far-field average.

    With zero deviation data the limit is exact at any large time; with
    nonzero-mass data the transient decays only like t^(-1/2) (whole-line
    heat spreading), so that case asserts the decay rate instead.
    """
    cfg0 = fh.two_semi_infinite(
        *generic_two_semi.sigmas,
        gamma_left=generic_two_semi.far_field[0],
        gamma_right=generic_two_semi.far_field[1],
    )
    sol0 = solve_two_semi_infinite(cfg0)
    gl, gr = cfg0.far_field
    sl, sr = cfg0.sigmas
    target = (gl * sl + gr * sr) / (sl + sr)
    # at the interface the boundary-layer term vanishes identically
    assert sol0.value(0.0, 1e3) == pytest.approx(target, abs=1e-9)
    # off the interface the approach is erf(x/(2 sigma sqrt t)) ~ t^(-1/2)
    for x in (-0.5, 0.8):
        d1 = abs(sol0.value(x, 1e3) - target)
        d2 = abs(sol0.value(x, 16e3) - target)
        assert d1 < 2e-2
        assert d2 < 0.35 * d1

    sol = solve_two_semi_infinite(generic_two_semi)
    d1 = abs(sol.value(0.0, 1e3) - target)
    d2 = abs(sol.value(0.0, 16e3) - target)
    assert d1 < 1e-2
    assert d2 < 0.5 * d1  # expect ~1/4 from the t^(-1/2) tail


def test_total_heat_conserved(generic_two_semi):
    # integral of u - gamma over the line is invariant (flux continuity telescopes)
    cfg = generic_two_semi
    sol = solve_two_semi_infinite(cfg)
    gl, gr = cfg.far_field

    def total(t):
        from numpy.polynomial.legendre import leggauss

        xg, wg = leggauss(16)
        acc = 0.0
        for layer, (lo, hi), base in ((0, (-30.0, 0.0), gl), (1, (0.0, 30.0), gr)):
            edges = np.linspace(lo, hi, 241)
            for e0, e1 in zip(edges[:-1], edges[1:]):
                xq = 0.5 * (e0 + e1) + 0.5 * (e1 - e0) * xg
                acc += float(np.sum(0.5 * (e1 - e0) * wg * (sol.values_in_layer(layer, xq, t) - base)))
        return acc

    h1, h2 = total(0.05), total(0.6)
    assert h1 == pytest.approx(h2, abs=2e-6 * max(1.0, abs(h1)))


def test_arc_radius_independence(fig5_config):
    xs = np.array([-0.02, 0.0, 0.01])
    t = 0.01
    vals = [
        solve_two_semi_infinite(fig5_config, Numerics(arc_radius=r, avoid_origin=True)).values(xs, t)
        for r in (0.5, 1.0, 2.0)
    ]
    assert np.max(np.abs(vals[0] - vals[1])) < 1e-8
    assert np.max(np.abs(vals[2] - vals[1])) < 1e-8


def _cached_nodes(sol):
    return sum(k.size for nodal in sol._cache.values() for k, _c, _s in nodal)


def test_span_follows_requested_x(fig5_config):
    """Semi-infinite contours are sized to the batch's largest |x|: the fig5
    grid needs a quarter of the nodes a batch reaching |x| = 1 needs, for
    the same values."""
    t = 0.01
    xs = np.linspace(-0.1, 0.1, 400)
    narrow = solve_two_semi_infinite(fig5_config)
    u = narrow.values(xs, t)
    wide = solve_two_semi_infinite(fig5_config)
    u_wide = wide.values(np.concatenate(([-1.0], xs, [1.0])), t)[1:-1]
    assert np.max(np.abs(u - u_wide)) <= 1e-12 * np.max(np.abs(u_wide))
    assert _cached_nodes(narrow) <= _cached_nodes(wide) / 4


def test_fig5_batch_declines_interpolation(fig5_config, monkeypatch):
    """fig5's 200-point layers need 64-256 Chebyshev points, too many to
    repay interpolation: the values are those of direct evaluation, bit for
    bit."""
    t = 0.005
    xs = np.linspace(-0.1, 0.1, 400)
    sol = solve_two_semi_infinite(fig5_config)
    u = sol.values(xs, t)
    monkeypatch.setattr(_field, "_INTERP_POINTS_PER_NODE", math.inf)
    assert np.array_equal(u, sol.values(xs, t))


def test_fig5_flux_ratio_and_continuity(fig5_config):
    sol = solve_two_semi_infinite(fig5_config)
    t = 0.01
    ul = sol.values_in_layer(0, np.array([0.0]), t)[0]
    ur = sol.values_in_layer(1, np.array([0.0]), t)[0]
    assert abs(ul - ur) < 1e-10
    dl = sol.derivative(0.0, t, layer=0)
    dr = sol.derivative(0.0, t, layer=1)
    assert dl / dr == pytest.approx(9.0, rel=1e-4)


def test_pde_residual_interior(generic_two_semi):
    sol = solve_two_semi_infinite(generic_two_semi)
    t = 0.25
    for layer, x0 in ((0, -0.6), (1, 0.7)):
        sig = generic_two_semi.sigmas[layer]
        h = 0.02
        pts = x0 + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        vals = sol.values_in_layer(layer, pts, t)
        uxx = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
        ut = sol.time_derivative(x0, t)
        scale = max(1.0, abs(ut))
        assert abs(ut - sig**2 * uxx) < 1e-4 * scale
