import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import fokas_heat as fh
from fokas_heat import _field
from fokas_heat._field import Numerics
from fokas_heat.oracles import crank_nicolson, make_grid, single_medium_neumann_series
from fokas_heat.solver_finite import delta_three_finite, solve_three_finite


def delta_three_finite_real_form(sL, sM, sR, a, b, c):
    """Real oscillatory eigencondition E(k) of the insulated three-layer slab."""

    def g(k):
        k = np.asarray(k, dtype=float)
        al, be, rh = a * k, b * sL / sM * k, (c - b) * sL / sR * k
        return (
            sM**2 * np.cos(al) * np.sin(be) * np.cos(rh)
            + sL * sM * np.sin(al) * np.cos(be) * np.cos(rh)
            + sM * sR * np.cos(al) * np.cos(be) * np.sin(rh)
            - sL * sR * np.sin(al) * np.sin(be) * np.sin(rh)
        )

    return g


def total_heat(sol, t):
    cfg = sol.config
    xg, wg = leggauss(24)
    tot = 0.0
    for i, layer in enumerate(cfg.layers):
        edges = np.linspace(layer.x_lo, layer.x_hi, 30)
        for e0, e1 in zip(edges[:-1], edges[1:]):
            xq = 0.5 * (e0 + e1) + 0.5 * (e1 - e0) * xg
            tot += float(np.sum(0.5 * (e1 - e0) * wg * sol.values_in_layer(i, xq, t)))
    return tot


def test_delta_zero_at_origin_and_real_zeros():
    d = delta_three_finite(1.0, 0.7, 1.4, 1.0, 1.0, 2.0, "left")
    assert abs(d(0.0)) < 1e-12
    g = delta_three_finite_real_form(1.0, 0.7, 1.4, 1.0, 1.0, 2.0)
    # the exponential-sum and trigonometric forms describe the same zeros:
    # scan for sign changes of g and confirm |delta| dips there
    ks = np.linspace(1e-3, 6, 4000)
    gv = g(ks)
    roots = ks[:-1][np.sign(gv[:-1]) != np.sign(gv[1:])]
    assert roots.size >= 3
    for k0 in roots[:3]:
        assert abs(d(k0)) < 1e-2 * max(1.0, abs(d(k0 + 0.3)))


def test_delta_equal_sigma_single_slab_eigenvalues():
    # equal sigmas: zeros of the insulated composite slab must be the
    # single-medium values n pi / (a + c)
    sig, a, b, c = 0.9, 1.0, 1.0, 2.0
    g = delta_three_finite_real_form(sig, sig, sig, a, b, c)
    for n in range(1, 5):
        assert abs(g(n * np.pi / (a + c))) < 1e-12


def test_delta_bounded_on_contours():
    from fokas_heat.contours import build_contour

    d = delta_three_finite(1.0, 0.7, 1.4, 1.0, 1.0, 2.0, "left")
    for half in ("upper", "lower"):
        cc = build_contour(half, 0.7, 0.05, x_scale=8.0, avoid_origin=True, r=1.0)
        dv, _ = d.eval_scaled(cc.nodes, half)
        assert np.min(np.abs(dv)) > 1e-12 * np.max(np.abs(dv))


def test_zero_data_zero_field():
    cfg = fh.three_finite(1.0, 0.7, 1.4, 1.0, 1.0, 2.0)
    sol = solve_three_finite(cfg)
    for x in (-0.5, 0.5, 1.5):
        assert sol.value(x, 0.2) == pytest.approx(0.0, abs=1e-13)


def test_equal_sigma_matches_cosine_series():
    a, b, c = 1.0, 1.0, 2.0
    sig = 0.9
    prof = lambda x: np.cos(np.pi * (x + 1) / 3)
    cfg = fh.three_finite(
        sig,
        sig,
        sig,
        a,
        b,
        c,
        left_initial=fh.SampledInterval(prof, -a, 0.0),
        middle_initial=fh.SampledInterval(prof, 0.0, b),
        right_initial=fh.SampledInterval(prof, b, c),
    )
    sol = solve_three_finite(cfg)
    ser = single_medium_neumann_series(prof, sig, -a, c, n_modes=60)
    xs = np.array([-0.9, -0.4, 0.0, 0.3, 0.8, 1.0, 1.3, 1.9])
    for t in (0.05, 0.2, 1.0):
        assert np.max(np.abs(sol.values(xs, t) - ser(xs, t))) < 1e-6


def test_heat_conserved(three_finite_full_config):
    sol = solve_three_finite(three_finite_full_config)
    heats = [total_heat(sol, t) for t in (0.01, 0.05, 0.2, 1.0)]
    scale = max(abs(h) for h in heats)
    assert (max(heats) - min(heats)) / scale < 1e-6


def test_interface_conditions(three_finite_config):
    cfg = three_finite_config
    sol = solve_three_finite(cfg)
    t = 0.2
    for xi, (l1, l2) in ((0.0, (0, 1)), (1.0, (1, 2))):
        ul = sol.values_in_layer(l1, np.array([xi]), t)[0]
        ur = sol.values_in_layer(l2, np.array([xi]), t)[0]
        assert abs(ul - ur) < 1e-8 * max(1.0, abs(ul))
        fl = cfg.layers[l1].sigma ** 2 * sol.derivative(xi, t, layer=l1)
        fr = cfg.layers[l2].sigma ** 2 * sol.derivative(xi, t, layer=l2)
        assert fl == pytest.approx(fr, rel=2e-4, abs=1e-9)


def test_insulated_ends(three_finite_config):
    sol = solve_three_finite(three_finite_config)
    for t in (0.05, 0.5):
        assert abs(sol.derivative(-1.0, t, layer=0)) < 1e-4
        assert abs(sol.derivative(2.0, t, layer=2)) < 1e-4


def test_crank_nicolson_agreement(three_finite_full_config):
    cfg = three_finite_full_config
    sol = solve_three_finite(cfg)
    t = 0.2
    xs = np.array([-0.9, -0.4, 0.0, 0.3, 0.8, 1.0, 1.3, 1.9])
    grid = make_grid(cfg, 1400, t_end=t, dt=t / 1500)
    fd = crank_nicolson(cfg, grid, t)
    assert np.max(np.abs(sol.values(xs, t) - fd.interp(t, xs))) < 2e-4


def test_reflection_symmetry(three_finite_full_config):
    cfg = three_finite_full_config
    b = cfg.layers[1].x_hi
    sol = solve_three_finite(cfg)
    msol = solve_three_finite(fh.mirrored(cfg))
    xs = np.array([-0.9, -0.3, 0.2, 0.9, 1.2, 1.9])
    t = 0.2
    np.testing.assert_allclose(sol.values(xs, t), msol.values(b - xs, t), atol=1e-9)


def test_long_time_limit_is_mean(three_finite_config):
    # insulated slab relaxes to the conserved mean of the initial data
    cfg = three_finite_config
    sol = solve_three_finite(cfg)
    xs = np.linspace(-1, 0, 3001)
    mean = np.trapezoid(np.real(cfg.initial_data[0](xs)), xs) / 3.0
    for x in (-0.5, 0.5, 1.5):
        assert sol.value(x, 1e3) == pytest.approx(mean, abs=1e-7)


def test_arc_radius_independence(three_finite_config):
    xs = np.array([-0.5, 0.5, 1.5])
    t = 0.2
    vals = [
        solve_three_finite(three_finite_config, Numerics(arc_radius=r)).values(xs, t)
        for r in (0.5, 1.0, 2.0)
    ]
    assert np.max(np.abs(vals[0] - vals[1])) < 1e-8
    assert np.max(np.abs(vals[2] - vals[1])) < 1e-8


def test_eval_wrapper(three_finite_config):
    sol = solve_three_finite(three_finite_config)
    assert sol.sample(1.5, 0.2).layer_index == 2


def _count_phase_sum_points(monkeypatch):
    """Patch the field's phase_sum to count the x points it is given."""
    seen = [0]
    inner = _field.phase_sum

    def counting(x, k, c):
        seen[0] += np.size(x)
        return inner(x, k, c)

    monkeypatch.setattr(_field, "phase_sum", counting)
    return seen


def test_large_batch_is_interpolated(three_finite_config, monkeypatch):
    """A 1e4-point batch comes from Chebyshev points plus a checked subset:
    it matches direct evaluation to 1e-12 of max|u| and passes phase_sum
    at most 5% of the x that direct evaluation passes."""
    t = 0.06
    xs = np.linspace(-1.0, 2.0, 10_000)
    sol = solve_three_finite(three_finite_config)
    sol.values(xs[::100], t)  # fills the nodal cache; too few x to interpolate
    points = _count_phase_sum_points(monkeypatch)
    u = sol.values(xs, t)
    interpolated = points[0]
    monkeypatch.setattr(_field, "_INTERP_POINTS_PER_NODE", math.inf)
    points[0] = 0
    direct = sol.values(xs, t)
    assert np.max(np.abs(u - direct)) <= 1e-12 * np.max(np.abs(direct))
    assert interpolated <= 0.05 * points[0]


def test_rejected_interpolant_falls_back(three_finite_config, monkeypatch):
    """With the degree estimate forced far too low the check rejects the
    interpolant, and every x is evaluated directly."""
    t = 0.06
    xs = np.linspace(-1.0, 2.0, 10_000)
    sol = solve_three_finite(three_finite_config)
    sol.values(xs[::100], t)
    monkeypatch.setattr(_field, "_cheb_degree", lambda nodal, lo, hi: 4)
    points = _count_phase_sum_points(monkeypatch)
    u = sol.values(xs, t)
    tried = points[0]
    monkeypatch.setattr(_field, "_INTERP_POINTS_PER_NODE", math.inf)
    points[0] = 0
    direct = sol.values(xs, t)
    assert np.array_equal(u, direct)
    assert tried > points[0]  # the interpolant was built and checked first


def _scaled_insulated(lam):
    """configs/three_insulated.cfg with walls and data scaled by ``lam``."""
    left = fh.SampledInterval(
        lambda x: np.sin(np.pi * x / (2 * lam)) ** 2 * (1 + x / lam), -lam, 0.0
    )
    return fh.three_finite(1.0, 0.7, 1.4, lam, lam, 2 * lam, left_initial=left)


def test_default_arc_is_scale_invariant():
    # u_lam(lam x, lam^2 t) = u_1(x, t); with the arc at R_gauss/3 every
    # length in the contours scales with lam, so the nodes do too
    x1 = np.linspace(-1.0, 2.0, 61)
    counts, values = {}, {}
    for lam in (0.25, 1.0, 4.0):
        sol = solve_three_finite(_scaled_insulated(lam))
        values[lam] = sol.values(lam * x1, 0.1 * lam**2)
        counts[lam] = sorted(
            (key[0], sum({id(k): k.size for k, _, _ in nodal}.values()))
            for key, nodal in sol._cache.items()
        )
    scale = float(np.max(np.abs(values[1.0])))
    for lam in (0.25, 4.0):
        assert counts[lam] == counts[1.0]
        assert float(np.max(np.abs(values[lam] - values[1.0]))) <= 1e-12 * scale
