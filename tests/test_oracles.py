import math

import numpy as np
import pytest

import fokas_heat as fh
from fokas_heat.errors import RootBracketFailure, TruncationTooTight
from fokas_heat.oracles import (
    _initial_profile,
    classical_series_two_finite,
    crank_nicolson,
    heat_kernel_whole_line,
    make_grid,
    run_verification,
    single_medium_neumann_series,
    two_finite_eigenvalues,
)
from fokas_heat.solver_finite import delta_two_finite_left, steady_state
from tests.conftest import fd_self_convergence_order


def test_cn_preserves_equilibrium():
    cfg = fh.two_semi_infinite(1.0, 2.0, gamma_left=0.7, gamma_right=0.7)
    grid = make_grid(cfg, 150, t_end=0.5)
    fd = crank_nicolson(cfg, grid, 0.5)
    assert np.max(np.abs(fd.fields[-1] - 0.7)) < 1e-12


def test_cn_single_medium_exact_series():
    prof = lambda x: np.sin(np.pi * (x + 1) / 2)
    cfg = fh.two_finite(
        1.0,
        1.0,
        1.0,
        1.0,
        left_initial=fh.SampledInterval(prof, -1.0, 0.0),
        right_initial=fh.SampledInterval(prof, 0.0, 1.0),
    )
    t = 0.1
    grid = make_grid(cfg, 200, t_end=t, dt=t / 400)
    fd = crank_nicolson(cfg, grid, t)
    exact = math.exp(-((math.pi / 2) ** 2) * t) * prof(fd.xs)
    assert np.max(np.abs(fd.fields[-1] - exact)) < 5e-6


def test_cn_reaches_two_finite_steady_state():
    # dt small enough for the boundary-jump startup modes to damp out fully
    # (Crank-Nicolson rings otherwise); by t = 1e3 only the discrete steady
    # state remains, and the scheme's steady state is exactly piecewise linear
    cfg = fh.two_finite(1.0, 2.0, 1.0, 1.0, left_value=0.0, right_value=1.0)
    grid = make_grid(cfg, 400, t_end=1e3, dt=0.02)
    fd = crank_nicolson(cfg, grid, 1e3)
    st = steady_state(cfg)
    assert np.max(np.abs(fd.fields[-1] - st(fd.xs))) < 1e-6


def test_cn_grid_refinement_self_convergence():
    # compatible data (continuous value, zero flux at the interface)
    left = fh.SampledInterval(lambda x: np.cos(np.pi * x / 2) ** 2, -1.0, 0.0)
    right = fh.SampledInterval(lambda x: np.cos(np.pi * x / 2) ** 2, 0.0, 1.0)
    cfg = fh.two_finite(1.0, 2.0, 1.0, 1.0, left_initial=left, right_initial=right)
    order = fd_self_convergence_order(cfg, 0.1, n_base=60)
    assert 1.8 <= order <= 2.2


def test_cn_truncation_monitor():
    # a domain truncated far too close to the data must be detected
    left = fh.ExpPolynomial((fh.ExpPolyTerm(1.0, 0, 0.05),), side="left")
    cfg = fh.two_semi_infinite(1.0, 1.0, left_initial=left)
    grid = make_grid(cfg, 100, t_end=0.5)
    # shrink the domain manually: rebuild a grid on a tiny domain
    from fokas_heat.oracles import FDGrid

    xs = np.concatenate([np.linspace(-1.0, 0.0, 101), np.linspace(0.0, 1.0, 101)[1:]])
    tiny = FDGrid(xs, grid.dt, (0, 100), cfg.sigmas, (0.01, 0.01))
    with pytest.raises(TruncationTooTight):
        crank_nicolson(cfg, tiny, 0.5)


def _dense_crank_nicolson(cfg, grid, t_end):
    """Reference march: the scheme's full A and B (five-point interface and
    one-sided Neumann rows as written) solved densely at every step."""
    xs, n = grid.xs, grid.xs.size
    n_steps = max(1, int(round(t_end / grid.dt)))
    dt = t_end / n_steps
    layer_of = np.searchsorted(np.array(grid.layer_starts), np.arange(n), side="right") - 1
    A, B = np.zeros((n, n)), np.zeros((n, n))
    for i in range(1, n - 1):
        if i in grid.interfaces:
            l, r = layer_of[i - 1], layer_of[i + 1]
            s1 = grid.sigmas[l] ** 2 / (2 * grid.spacings[l])
            s2 = grid.sigmas[r] ** 2 / (2 * grid.spacings[r])
            A[i, i - 2 : i + 3] = (s1, -4 * s1, 3 * s1 + 3 * s2, -4 * s2, s2)
        else:
            lam = 0.5 * grid.sigmas[layer_of[i]] ** 2 * dt / grid.spacings[layer_of[i]] ** 2
            A[i, i - 1 : i + 2] = (-lam, 1 + 2 * lam, -lam)
            B[i, i - 1 : i + 2] = (lam, 1 - 2 * lam, lam)
    ends = {}
    for i0, sgn, end, h in ((0, 1, cfg.end_left, grid.spacings[0]), (n - 1, -1, cfg.end_right, grid.spacings[-1])):
        if end is None or end.alpha_ux == 0:
            A[i0, i0] = 1.0
            ends[i0] = (lambda t, e=end: e.data(t) / e.alpha_u) if end is not None else None
        else:
            A[i0, [i0, i0 + sgn, i0 + 2 * sgn]] = sgn * np.array([-3.0, 4.0, -1.0]) / (2 * h)
    far = dict(zip((0, n - 1), cfg.far_field or (0.0, 0.0)))
    u = _initial_profile(cfg, xs)
    for step in range(n_steps):
        rhs = B @ u
        for i0, fn in ends.items():
            rhs[i0] = fn((step + 1) * dt) if fn is not None else far[i0]
        u = np.linalg.solve(A, rhs)
    return u


@pytest.mark.parametrize("geometry", ["two_semi_infinite", "two_finite", "three_finite"])
def test_cn_matches_dense_reference(geometry, fig5_config, three_finite_full_config):
    # the banded solver reduces the five-point rows to a tridiagonal system;
    # marching the unreduced scheme densely must give the same field
    cfg = {
        "two_semi_infinite": fig5_config,
        "two_finite": fh.two_finite(
            1.0,
            2.0,
            1.0,
            0.5,
            left_value=fh.BoundaryData(((1.0, 1, -0.5),)),
            right_value=0.3,
            left_initial=fh.SampledInterval(lambda x: np.cos(np.pi * x / 2) ** 2, -1.0, 0.0),
        ),
        "three_finite": three_finite_full_config,
    }[geometry]
    t_end = 0.05
    grid = make_grid(cfg, 12, t_end=t_end, dt=t_end / 40)
    got = crank_nicolson(cfg, grid, t_end).fields[-1]
    ref = _dense_crank_nicolson(cfg, grid, t_end)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_eigenvalues_equal_sigma():
    # sigma_L = sigma_R, a = b = 1: eigencondition reduces to sin(2k) = 0
    ks = two_finite_eigenvalues(1.3, 1.3, 1.0, 1.0, 6)
    np.testing.assert_allclose(ks, np.arange(1, 7) * np.pi / 2, rtol=1e-12)


def test_eigenvalues_generic_residuals():
    sL, sR, a, b = 1.0, 2.0, 1.0, 1.0
    ks = two_finite_eigenvalues(sL, sR, a, b, 5)
    d = delta_two_finite_left(sL, sR, a, b)
    assert np.all(np.diff(ks) > 0)
    assert np.max(np.abs(d(ks))) < 1e-10


def test_eigenvalue_bracket_failure_reported():
    with pytest.raises(RootBracketFailure):
        # scan budget too small to isolate the requested number of roots
        two_finite_eigenvalues(1.0, 2.0, 1.0, 1.0, 50, max_scan=10)


def test_series_initial_projection(slab_config):
    # t -> 0 reproduces the initial data away from the ends, where the
    # steady-lifted datum violates the homogeneous conditions and the
    # eigenfunction series converges only in the Gibbs sense
    ser = classical_series_two_finite(slab_config, 120)
    xs = np.array([-0.7, -0.4, 0.35, 0.6])
    u0 = np.real(
        np.where(
            xs < 0,
            slab_config.initial_data[0](xs),
            slab_config.initial_data[1](xs),
        )
    )
    vals = ser.values(xs, 1e-6)
    assert np.max(np.abs(vals - u0)) < 2e-2


def test_heat_kernel_normalization():
    # u0 == 1 via explicit windows: kernel mass integrates to 1
    one = (lambda y: np.ones_like(y), -50.0, 0.0)
    one_r = (lambda y: np.ones_like(y), 0.0, 50.0)
    for x, t in ((0.0, 0.3), (1.2, 0.05), (-2.0, 1.0)):
        val = heat_kernel_whole_line(one, one_r, 1.1, x, t)
        assert val == pytest.approx(1.0, abs=1e-10)


def test_heat_kernel_spreading_gaussian():
    # narrow Gaussian spreads with variance 2 sigma^2 t added
    s0 = 0.05
    sigma = 0.9
    gauss = lambda y: np.exp(-(y**2) / (2 * s0**2)) / (s0 * math.sqrt(2 * math.pi))
    left = (gauss, -1.0, 0.0)
    right = (gauss, 0.0, 1.0)
    for t in (0.02, 0.1):
        var = s0**2 + 2 * sigma**2 * t
        for x in (0.0, 0.2):
            expected = math.exp(-(x**2) / (2 * var)) / math.sqrt(2 * math.pi * var)
            got = heat_kernel_whole_line(left, right, sigma, x, t)
            assert got == pytest.approx(expected, rel=1e-6)


def test_heat_kernel_matches_fig5_solver(fig5_config):
    from fokas_heat.solver_semi_infinite import solve_two_semi_infinite

    left, right = fig5_config.initial_data
    cfg = fh.two_semi_infinite(0.02, 0.02, left_initial=left, right_initial=right)
    sol = solve_two_semi_infinite(cfg)
    t = 0.01
    for x in (-0.01, 0.0, 0.004):
        hk = heat_kernel_whole_line(left, right, 0.02, x, t)
        assert sol.value(x, t) == pytest.approx(hk, abs=1e-8)


def test_single_medium_neumann_series_conserves_mean():
    prof = lambda x: np.cos(np.pi * (x + 1) / 3)
    ser = single_medium_neumann_series(prof, 0.9, -1.0, 2.0, n_modes=40)
    xs = np.linspace(-1, 2, 601)
    mean0 = np.trapezoid(prof(xs), xs) / 3.0
    assert np.trapezoid(ser(xs, 0.5), xs) / 3.0 == pytest.approx(mean0, abs=1e-9)


def test_run_verification_zero_data_passes():
    cfg = fh.two_finite(1.0, 2.0, 1.0, 1.0)
    checks = run_verification(cfg, t_check=0.1)
    assert all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert "dual_path_agreement" in names and "classical_series" in names


def test_cn_refinement_study_fig5(fig5_config):
    # halving dx and dt shrinks the deviation from the contour solution ~x4
    from fokas_heat.solver_semi_infinite import solve_two_semi_infinite

    sol = solve_two_semi_infinite(fig5_config)
    t = 0.01
    xs = np.linspace(-0.02, 0.02, 21)
    ref = sol.values(xs, t)
    errs = []
    for n, nt in ((500, 160), (1000, 320), (2000, 640)):
        grid = make_grid(fig5_config, n, t_end=t, dt=t / nt)
        fd = crank_nicolson(fig5_config, grid, t)
        errs.append(np.max(np.abs(ref - fd.interp(t, xs))))
    assert 2.5 <= errs[0] / errs[1] <= 6.5
    assert 2.5 <= errs[1] / errs[2] <= 6.5


def test_run_verification_all_geometries(three_infinite_config, three_finite_config):
    for cfg in (
        fh.two_semi_infinite(1.0, 2.0, gamma_left=0.2, gamma_right=0.8),
        three_infinite_config,
        three_finite_config,
    ):
        checks = run_verification(cfg, t_check=0.15, quick=True)
        assert checks and all(c.passed for c in checks), [c.line() for c in checks]
