import numpy as np
import pytest

import fokas_heat as fh
from fokas_heat._field import Numerics
from fokas_heat.oracles import crank_nicolson, make_grid
from fokas_heat.solver_semi_infinite import solve_three_infinite, solve_two_semi_infinite
from tests.conftest import c1_left_halfline


def test_zero_data_zero_everywhere():
    cfg = fh.three_infinite(1.0, 0.7, 1.4, 0.6)
    sol = solve_three_infinite(cfg, "full")
    for x in (-2.0, -0.3, 0.9):
        assert sol.value(x, 0.2) == pytest.approx(0.0, abs=1e-14)


def test_restricted_variant_requires_restricted_data():
    mid = fh.SampledInterval(lambda x: np.ones_like(x), -0.6, 0.6)
    cfg = fh.three_infinite(1.0, 0.7, 1.4, 0.6, middle_initial=mid)
    with pytest.raises(fh.FokasHeatError):
        solve_three_infinite(cfg, "restricted")


def test_restricted_and_full_agree_on_restricted_data(three_infinite_config):
    sr = solve_three_infinite(three_infinite_config, "restricted")
    sf = solve_three_infinite(three_infinite_config, "full")
    xs = np.array([-2.0, -1.0, -0.62, -0.3, 0.0, 0.45, 0.62, 1.2, 2.5])
    for t in (0.05, 0.15):
        assert np.max(np.abs(sr.values(xs, t) - sf.values(xs, t))) < 1e-10


def test_equal_sigma_merges_into_two_semi_infinite():
    a = 0.6
    left = c1_left_halfline(a)
    cfg3 = fh.three_infinite(1.1, 1.1, 1.1, a, left_initial=left)
    cfg2 = fh.two_semi_infinite(1.1, 1.1, left_initial=left)
    s3 = solve_three_infinite(cfg3, "restricted")
    s2 = solve_two_semi_infinite(cfg2)
    xs = np.array([-2.0, -1.0, -0.61, -0.3, 0.1, 0.59, 0.61, 1.5])
    t = 0.15
    assert np.max(np.abs(s3.values(xs, t) - s2.values(xs, t))) < 1e-8


def test_interface_conditions(three_infinite_config):
    cfg = three_infinite_config
    sol = solve_three_infinite(cfg, "restricted")
    t = 0.15
    a = cfg.layers[1].x_hi
    for xi, (l1, l2) in ((-a, (0, 1)), (a, (1, 2))):
        ul = sol.values_in_layer(l1, np.array([xi]), t)[0]
        ur = sol.values_in_layer(l2, np.array([xi]), t)[0]
        assert abs(ul - ur) < 1e-8 * max(1.0, abs(ul))
        fl = cfg.layers[l1].sigma ** 2 * sol.derivative(xi, t, layer=l1)
        fr = cfg.layers[l2].sigma ** 2 * sol.derivative(xi, t, layer=l2)
        assert fl == pytest.approx(fr, rel=1e-4, abs=1e-9)


def test_crank_nicolson_agreement(three_infinite_config):
    cfg = three_infinite_config
    sol = solve_three_infinite(cfg, "restricted")
    t = 0.15
    xs = np.array([-2.0, -1.0, -0.7, -0.3, 0.0, 0.4, 0.7, 1.5])
    grid = make_grid(cfg, 2400, t_end=t, dt=t / 1600)
    fd = crank_nicolson(cfg, grid, t)
    assert np.max(np.abs(sol.values(xs, t) - fd.interp(t, xs))) < 1e-4


def test_full_variant_all_layers_data_vs_fd():
    a = 0.6
    left = c1_left_halfline(a)
    mid = fh.SampledInterval(lambda x: np.cos(np.pi * x / (2 * a)) ** 2, -a, a)
    rt = left.reflected()
    cfg = fh.three_infinite(1.0, 0.7, 1.4, a, left_initial=left, middle_initial=mid, right_initial=rt)
    sol = solve_three_infinite(cfg, "full")
    t = 0.15
    xs = np.array([-1.5, -0.7, -0.2, 0.3, 0.7, 1.6])
    grid = make_grid(cfg, 2400, t_end=t, dt=t / 1600)
    fd = crank_nicolson(cfg, grid, t)
    assert np.max(np.abs(sol.values(xs, t) - fd.interp(t, xs))) < 1e-4
    # continuity for the full variant too
    for xi, (l1, l2) in ((-a, (0, 1)), (a, (1, 2))):
        ul = sol.values_in_layer(l1, np.array([xi]), t)[0]
        ur = sol.values_in_layer(l2, np.array([xi]), t)[0]
        assert abs(ul - ur) < 1e-8


def test_mirror_symmetry(three_infinite_config):
    cfg = three_infinite_config
    sol = solve_three_infinite(cfg, "full")
    msol = solve_three_infinite(fh.mirrored(cfg), "full")
    xs = np.array([-1.5, -0.61, 0.2, 0.61, 2.0])
    t = 0.2
    np.testing.assert_allclose(sol.values(xs, t), msol.values(-xs, t), atol=1e-9)


def test_total_heat_conserved(three_infinite_config):
    cfg = three_infinite_config
    sol = solve_three_infinite(cfg, "restricted")

    def total(t):
        from numpy.polynomial.legendre import leggauss

        xg, wg = leggauss(16)
        acc = 0.0
        for i, (lo, hi) in enumerate(((-25.0, -0.6), (-0.6, 0.6), (0.6, 25.0))):
            edges = np.linspace(lo, hi, 201)
            for e0, e1 in zip(edges[:-1], edges[1:]):
                xq = 0.5 * (e0 + e1) + 0.5 * (e1 - e0) * xg
                acc += float(np.sum(0.5 * (e1 - e0) * wg * sol.values_in_layer(i, xq, t)))
        return acc

    h1, h2 = total(0.05), total(0.5)
    assert h1 == pytest.approx(h2, rel=2e-6)


def test_arc_radius_independence(three_infinite_config):
    xs = np.array([-0.7, 0.0, 0.7])
    t = 0.15
    vals = [
        solve_three_infinite(three_infinite_config, "restricted", Numerics(arc_radius=r, avoid_origin=True)).values(xs, t)
        for r in (0.5, 1.0, 2.0)
    ]
    assert np.max(np.abs(vals[0] - vals[1])) < 1e-8
    assert np.max(np.abs(vals[2] - vals[1])) < 1e-8
