import math

import numpy as np
import pytest

import fokas_heat as fh
from fokas_heat._field import Numerics
from fokas_heat.oracles import classical_series_two_finite
from fokas_heat.solver_finite import (
    InterfaceUnknowns,
    _two_finite_nodal_solve,
    _two_finite_setup,
    delta_two_finite_left,
    delta_two_finite_right,
    solve_two_finite_dirichlet,
    steady_state,
)

TWO_PI = 2 * math.pi


def delta_two_finite_product_form(sL, sR, a, b):
    """Factored form i pi (e^{2iak}+1)(e^{2ibk sL/sR}+1)(sL tan(bk sL/sR) + sR tan(ak)).

    Equals the expanded form away from the tangent poles.
    """
    bp = b * sL / sR

    def f(k):
        k = np.asarray(k, dtype=complex)
        return (
            1j
            * math.pi
            * (np.exp(2j * a * k) + 1)
            * (np.exp(2j * bp * k) + 1)
            * (sL * np.tan(bp * k) + sR * np.tan(a * k))
        )

    return f


# ---------------------------------------------------------------------------
# denominator function


def test_delta_zero_at_origin():
    d = delta_two_finite_left(1.0, 2.0, 1.0, 1.3)
    assert d(0.0) == pytest.approx(0.0, abs=1e-14)


def test_delta_sum_vs_product_form():
    sL, sR, a, b = 1.0, 2.0, 1.0, 1.3
    d = delta_two_finite_left(sL, sR, a, b)
    prod = delta_two_finite_product_form(sL, sR, a, b)
    rng = np.random.default_rng(3)
    k = rng.uniform(0.3, 8, 12) + 1j * np.concatenate([rng.uniform(0.2, 2, 6), -rng.uniform(0.2, 2, 6)])
    dv, pv = d(k), prod(k)
    assert np.max(np.abs(dv - pv)) < 1e-12 * np.max(np.abs(dv))


def test_delta_equal_sigma_zeros():
    # equal sigmas, a = b = 1: oscillatory factor reduces to sigma sin(2k),
    # so the zeros sit at k = n pi / 2
    d = delta_two_finite_left(1.3, 1.3, 1.0, 1.0)
    for n in range(1, 6):
        assert abs(d(n * np.pi / 2)) < 1e-12


def test_delta_right_is_left_rescaled():
    sL, sR, a, b = 0.8, 1.7, 0.9, 1.4
    dL = delta_two_finite_left(sL, sR, a, b)
    dR = delta_two_finite_right(sL, sR, a, b)
    k = np.array([0.7 + 0.3j, 2.0 - 1.0j])
    np.testing.assert_allclose(dR(k), dL(k * sR / sL), rtol=1e-13)


def test_delta_bounded_away_from_zero_on_contours():
    from fokas_heat.contours import build_contour

    d = delta_two_finite_left(1.0, 2.0, 1.0, 1.3)
    for half in ("upper", "lower"):
        c = build_contour(half, 1.0, 0.1, x_scale=5.0, avoid_origin=True, r=1.0)
        dv, _ = d.eval_scaled(c.nodes, half)
        assert np.min(np.abs(dv)) > 1e-12 * np.max(np.abs(dv))


# ---------------------------------------------------------------------------
# solution paths


def test_zero_everything_is_zero():
    cfg = fh.two_finite(1.0, 2.0, 1.0, 1.0)
    for path in ("transcribed", "linear_solve"):
        sol = solve_two_finite_dirichlet(cfg, path=path)
        assert sol.value(-0.4, 0.2) == pytest.approx(0.0, abs=1e-13)
        assert sol.value(0.7, 0.2) == pytest.approx(0.0, abs=1e-13)


def test_steady_state_formulas(steady_slab_config):
    st = steady_state(steady_slab_config)
    assert st.slopes[0] == pytest.approx(0.8)
    assert st.slopes[1] == pytest.approx(0.2)
    assert st.intercepts == (pytest.approx(0.8), pytest.approx(0.8))
    # continuity and flux continuity of the formulas are algebraic identities
    assert st(np.array([0.0]))[0] == pytest.approx(0.8)
    assert 1.0**2 * st.slopes[0] == pytest.approx(2.0**2 * st.slopes[1])


def test_steady_state_constant_data():
    cfg = fh.two_finite(1.0, 2.0, 1.0, 1.0, left_value=0.7, right_value=0.7)
    st = steady_state(cfg)
    xs = np.linspace(-1, 1, 11)
    np.testing.assert_allclose(st(xs), 0.7, atol=1e-14)


def test_long_time_limit_hits_steady(steady_slab_config):
    st = steady_state(steady_slab_config)
    xs = np.array([-0.9, -0.5, -0.1, 0.0, 0.3, 0.7, 0.99])
    for path in ("transcribed", "linear_solve"):
        sol = solve_two_finite_dirichlet(steady_slab_config, path=path)
        assert np.max(np.abs(sol.values(xs, 1e3) - st(xs))) < 1e-6


def test_dual_path_agreement(slab_config):
    st = solve_two_finite_dirichlet(slab_config)
    sl = solve_two_finite_dirichlet(slab_config, path="linear_solve")
    xs = np.array([-0.95, -0.6, -0.2, 0.0, 0.2, 0.5, 0.8, 0.95])
    for t in (0.05, 0.1, 0.7):
        assert np.max(np.abs(st.values(xs, t) - sl.values(xs, t))) < 1e-8


def test_classical_series_agreement(slab_config):
    sol = solve_two_finite_dirichlet(slab_config)
    ser = classical_series_two_finite(slab_config, 50)
    xs = np.array([-0.95, -0.6, -0.2, 0.0, 0.2, 0.5, 0.8, 0.95])
    for t in (0.05, 0.1, 0.4):
        assert np.max(np.abs(sol.values(xs, t) - ser.values(xs, t))) < 1e-6


def test_boundary_values_reproduced(slab_config):
    sol = solve_two_finite_dirichlet(slab_config)
    for t in (0.05, 0.3, 2.0):
        assert sol.value(-1.0, t) == pytest.approx(0.3, abs=1e-6)
        assert sol.value(1.0, t) == pytest.approx(1.0, abs=1e-6)


def test_interface_conditions(slab_config):
    cfg = slab_config
    sol = solve_two_finite_dirichlet(cfg)
    for t in (0.05, 0.4):
        ul = sol.values_in_layer(0, np.array([0.0]), t)[0]
        ur = sol.values_in_layer(1, np.array([0.0]), t)[0]
        assert abs(ul - ur) < 1e-8 * max(1.0, abs(ul))
        fl = cfg.sigmas[0] ** 2 * sol.derivative(0.0, t, layer=0)
        fr = cfg.sigmas[1] ** 2 * sol.derivative(0.0, t, layer=1)
        assert fl == pytest.approx(fr, rel=2e-4)


def test_mirror_symmetry(slab_config):
    sol = solve_two_finite_dirichlet(slab_config)
    msol = solve_two_finite_dirichlet(fh.mirrored(slab_config))
    xs = np.array([-0.8, -0.3, 0.0, 0.45, 0.9])
    t = 0.2
    np.testing.assert_allclose(sol.values(xs, t), msol.values(-xs, t), atol=1e-9)


def test_arc_radius_independence(slab_config):
    xs = np.array([-0.5, 0.0, 0.5])
    t = 0.1
    vals = [
        solve_two_finite_dirichlet(slab_config, Numerics(arc_radius=r)).values(xs, t)
        for r in (0.5, 1.0, 2.0)
    ]
    assert np.max(np.abs(vals[0] - vals[1])) < 1e-8
    assert np.max(np.abs(vals[2] - vals[1])) < 1e-8


def test_eval_wrapper(slab_config):
    sol = solve_two_finite_dirichlet(slab_config)
    s = sol.sample(0.4, 0.2)
    assert s.layer_index == 1


def test_time_dependent_boundary_data_against_fd():
    # exponentially decaying right end temperature keeps the spectral route
    from fokas_heat.oracles import crank_nicolson, make_grid

    bd = fh.BoundaryData(((1.0, 0, 0.0), (-1.0, 0, -3.0)))  # 1 - e^{-3t}
    cfg = fh.two_finite(1.0, 2.0, 1.0, 1.0, left_value=0.0, right_value=bd)
    sol = solve_two_finite_dirichlet(cfg)
    t = 0.4
    grid = make_grid(cfg, 400, t_end=t, dt=t / 1200)
    fd = crank_nicolson(cfg, grid, t)
    xs = np.array([-0.8, -0.4, 0.0, 0.3, 0.6])  # interior: end layers need huge radii
    assert np.max(np.abs(sol.values(xs, t) - fd.interp(t, xs))) < 2e-4


# ---------------------------------------------------------------------------
# kernel extraction: corrected transcription == global-relation solve


def _transcribed_kernels(sL, sR, a, b, chan, half, k, kR):
    """Corrected final-formula kernels per damped data channel (integrand
    values multiplying e^{ikx} resp. e^{i kR x})."""
    bp, ap = b * sL / sR, a * sR / sL
    dL = delta_two_finite_left(sL, sR, a, b)(k)
    dR = delta_two_finite_right(sL, sR, a, b)(kR)
    EB2, EA2 = np.exp(2j * bp * k), np.exp(2j * a * k)
    EAp, EBb = np.exp(2j * ap * kR), np.exp(2j * b * kR)
    if chan == "ULp":
        kerL = (
            0.5 * (-(sL + sR) + (sL - sR) * EB2) / dL
            if half == "lower"
            else 0.5 * EA2 * (-(sR - sL) - (sL + sR) * EB2) / dL
        )
        kerR = -sR / dR
    elif chan == "ULm":
        kerL = 0.5 * EA2 * ((sL + sR) + (sR - sL) * EB2) / dL
        kerR = sR * EAp / dR
    elif chan == "URp":
        kerL = -sL * EA2 * EB2 / dL
        kerR = (
            0.5 * (-(sL + sR) + (sR - sL) * EAp) / dR
            if half == "lower"
            else 0.5 * EBb * (-(sL - sR) - (sL + sR) * EAp) / dR
        )
    elif chan == "URm":
        kerL = sL * EA2 / dL
        kerR = 0.5 * ((sL - sR) + (sL + sR) * EAp) / dR
    elif chan == "H0L":
        kerL = 1j * k * sL**2 * np.exp(1j * k * a) * ((sL + sR) - (sL - sR) * EB2) / dL
        kerR = 2j * kR * sL * sR**2 * np.exp(1j * kR * ap) / dR
    else:  # H0R
        kerL = -2j * k * sL**2 * sR * np.exp(1j * k * (2 * a + bp)) / dL
        kerR = -1j * kR * sR**2 * np.exp(1j * kR * b) * ((sL - sR) + (sL + sR) * EAp) / dR
    return kerL, kerR


@pytest.mark.parametrize("half", ["lower", "upper"])
@pytest.mark.parametrize("chan", ["ULp", "ULm", "URp", "URm", "H0L", "H0R"])
def test_kernel_extraction_matches_linear_solve(half, chan):
    """Inject basis vectors into the nodal global-relation solve and compare
    the resulting integrands with the corrected final-formula kernels, one
    data channel at a time.  This is the transcription typo detector: it
    localizes any misprint to a single kernel."""
    rng = np.random.default_rng(11)
    sL, sR, a, b = 0.9, 1.9, 1.1, 1.4
    cfg = fh.two_finite(sL, sR, a, b)
    setup = _two_finite_setup(cfg)
    sgn = -1 if half == "lower" else 1
    k = rng.uniform(0.4, 6, 7) + 1j * sgn * rng.uniform(0.2, 1.6, 7)
    kR = k * sL / sR
    chans = ("ULp", "ULm", "URp", "URm", "H0L", "H0R")
    ov = {c: (np.ones_like(k) if c == chan else np.zeros_like(k)) for c in chans}
    unk, Ea, Eb = _two_finite_nodal_solve(setup, k, kR, half, 0.4, overrides=ov)
    assert isinstance(unk, InterfaceUnknowns)
    if half == "lower":
        lin_L = -(sL**2) * (unk.g1 + 1j * k * unk.g0) / TWO_PI
        lin_R = -(sR**2) * Eb * (unk.h1_right + 1j * kR * unk.h0_right) / TWO_PI
    else:
        lin_L = -(sL**2) * Ea * (unk.h1_left + 1j * k * unk.h0_left) / TWO_PI
        lin_R = -(1j * kR * sR**2 * unk.g0 + sL**2 * unk.g1) / TWO_PI
    kerL, kerR = _transcribed_kernels(sL, sR, a, b, chan, half, k, kR)
    np.testing.assert_allclose(lin_L, kerL, atol=1e-13)
    np.testing.assert_allclose(lin_R, kerR, atol=1e-13)


def test_singular_node_when_contour_grazes_origin(steady_slab_config):
    # an arc radius this small parks quadrature nodes where the denominator
    # vanishes; the guard must refuse rather than divide through
    from fokas_heat.errors import SingularNode

    sol = solve_two_finite_dirichlet(
        steady_slab_config, Numerics(arc_radius=1e-14, avoid_origin=True)
    )
    with pytest.raises(SingularNode):
        sol.value(0.5, 0.2)
