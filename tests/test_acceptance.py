"""Acceptance gate: one test per criterion, each printing PASS/FAIL with the
measured error against its stated tolerance.  Run with ``pytest -s`` to see
the lines as they complete, or read the summary assertion messages.
"""

import time

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import fokas_heat as fh
from fokas_heat._field import Numerics
from fokas_heat.oracles import (
    classical_series_two_finite,
    crank_nicolson,
    heat_kernel_whole_line,
    make_grid,
    single_medium_neumann_series,
)
from fokas_heat.solver_finite import (
    solve_three_finite,
    solve_two_finite_dirichlet,
    steady_state,
)
from fokas_heat.solver_semi_infinite import (
    solve_three_infinite,
    solve_two_semi_infinite,
)
from tests.conftest import fd_self_convergence_order


def report(criterion: str, name: str, error: float, tol: float):
    status = "PASS" if error < tol else "FAIL"
    print(f"{status}  criterion {criterion} [{name}]: error {error:.3e} vs tol {tol:.1e}")
    assert error < tol, f"criterion {criterion} [{name}]: {error:.3e} >= {tol:.1e}"


def gl_heat(sol, lo, hi, layer, t, panels=40):
    xg, wg = leggauss(20)
    tot = 0.0
    for e0, e1 in zip(np.linspace(lo, hi, panels)[:-1], np.linspace(lo, hi, panels)[1:]):
        xq = 0.5 * (e0 + e1) + 0.5 * (e1 - e0) * xg
        tot += float(np.sum(0.5 * (e1 - e0) * wg * sol.values_in_layer(layer, xq, t)))
    return tot


def test_criterion_1_figure_reproduction(fig5_config):
    sol = solve_two_semi_infinite(fig5_config)
    xs = np.linspace(-0.07, 0.08, 400)
    times = (0.005, 0.01, 0.02)

    t0 = time.time()
    profiles = {t: sol.values(xs, t) for t in times}
    runtime = time.time() - t0
    report("1", "runtime 400-pt grid", runtime, 60.0)

    cont = max(
        abs(
            sol.values_in_layer(0, np.array([0.0]), t)[0]
            - sol.values_in_layer(1, np.array([0.0]), t)[0]
        )
        for t in times
    )
    report("1", "interface continuity", cont, 1e-6)

    flux_dev = max(
        abs(sol.derivative(0.0, t, layer=0) / sol.derivative(0.0, t, layer=1) - 9.0) / 9.0
        for t in times
    )
    report("1", "flux ratio within 1% of 9", flux_dev, 1e-2)

    grid = make_grid(fig5_config, (2600, 2600), t_end=0.02, dt=0.02 / 800)
    fd = crank_nicolson(fig5_config, grid, 0.02, sample_times=list(times))
    err = max(np.max(np.abs(profiles[t] - fd.interp(t, xs))) for t in times)
    report("1", "Crank-Nicolson max-norm", err, 1e-4)


def test_criterion_2_steady_weighted_average():
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(10):
        sl, sr = rng.uniform(0.3, 3.0, 2)
        gl, gr = rng.uniform(-2.0, 2.0, 2)
        cfg = fh.two_semi_infinite(sl, sr, gamma_left=gl, gamma_right=gr)
        sol = solve_two_semi_infinite(cfg)
        target = (gl * sl + gr * sr) / (sl + sr)
        worst = max(worst, abs(sol.value(0.0, 1e3) - target))
    report("2", "weighted average at t=1e3, 10 random configs", worst, 1e-6)


def test_criterion_3_whole_line_reduction():
    left = fh.ExpPolynomial(
        (fh.ExpPolyTerm(1.0, 1, 2.0), fh.ExpPolyTerm(0.5, 0, 3.0)), side="left"
    )
    right = fh.ExpPolynomial((fh.ExpPolyTerm(-0.7, 2, -1.5),), side="right")
    sigma = 1.3
    cfg = fh.two_semi_infinite(sigma, sigma, left_initial=left, right_initial=right)
    sol = solve_two_semi_infinite(cfg)
    worst = 0.0
    for t in (0.05, 0.2, 0.5, 1.0):
        for x in (-2.0, -0.8, -0.2, 0.0, 0.5):
            hk = heat_kernel_whole_line(left, right, sigma, x, t)
            worst = max(worst, abs(sol.value(x, t) - hk))
    report("3", "heat-kernel agreement at 20 points", worst, 1e-8)


def test_criterion_4_two_finite(slab_config, steady_slab_config):
    xs = np.array([-0.95, -0.6, -0.2, 0.0, 0.2, 0.5, 0.8, 0.95])
    st_path = solve_two_finite_dirichlet(slab_config)
    lin_path = solve_two_finite_dirichlet(slab_config, path="linear_solve")
    dual = max(
        np.max(np.abs(st_path.values(xs, t) - lin_path.values(xs, t))) for t in (0.05, 0.3)
    )
    report("4", "transcribed vs linear-solve", dual, 1e-8)

    ser = classical_series_two_finite(slab_config, 50)
    s_err = max(
        max(
            np.max(np.abs(st_path.values(xs, t) - ser.values(xs, t))),
            np.max(np.abs(lin_path.values(xs, t) - ser.values(xs, t))),
        )
        for t in (0.05, 0.2)
    )
    report("4", "50-mode classical series, t >= 0.05", s_err, 1e-6)

    st = steady_state(steady_slab_config)
    assert st.intercepts[0] == pytest.approx(0.8) and st.slopes == (
        pytest.approx(0.8),
        pytest.approx(0.2),
    )
    sol = solve_two_finite_dirichlet(steady_slab_config)
    l_err = np.max(np.abs(sol.values(xs, 1e3) - st(xs)))
    report("4", "long-time piecewise-linear limit", l_err, 1e-6)


def test_criterion_5_three_finite(three_finite_full_config):
    cfg = three_finite_full_config
    sol = solve_three_finite(cfg)
    heats = []
    for t in (0.01, 0.05, 0.2, 0.5, 1.0):
        heats.append(
            gl_heat(sol, -1.0, 0.0, 0, t) + gl_heat(sol, 0.0, 1.0, 1, t) + gl_heat(sol, 1.0, 2.0, 2, t)
        )
    drift = (max(heats) - min(heats)) / max(abs(h) for h in heats)
    report("5", "heat conservation over t in [0.01, 1]", drift, 1e-6)

    sig = 0.9
    prof = lambda x: np.cos(np.pi * (x + 1) / 3)
    cfg_eq = fh.three_finite(
        sig,
        sig,
        sig,
        1.0,
        1.0,
        2.0,
        left_initial=fh.SampledInterval(prof, -1.0, 0.0),
        middle_initial=fh.SampledInterval(prof, 0.0, 1.0),
        right_initial=fh.SampledInterval(prof, 1.0, 2.0),
    )
    sol_eq = solve_three_finite(cfg_eq)
    ser = single_medium_neumann_series(prof, sig, -1.0, 2.0, n_modes=60)
    xs = np.array([-0.9, -0.4, 0.0, 0.3, 0.8, 1.0, 1.3, 1.9])
    err = max(np.max(np.abs(sol_eq.values(xs, t) - ser(xs, t))) for t in (0.05, 0.3))
    report("5", "equal-sigma cosine series", err, 1e-6)


def test_criterion_6_three_infinite(three_infinite_config):
    cfg = three_infinite_config
    sr = solve_three_infinite(cfg, "restricted")
    sf = solve_three_infinite(cfg, "full")
    xs = np.array([-2.0, -1.0, -0.62, -0.3, 0.0, 0.45, 0.62, 1.2, 2.5])
    var_err = max(np.max(np.abs(sr.values(xs, t) - sf.values(xs, t))) for t in (0.05, 0.15))
    report("6", "restricted vs full variants", var_err, 1e-10)

    t = 0.15
    grid = make_grid(cfg, 2400, t_end=t, dt=t / 1600)
    fd = crank_nicolson(cfg, grid, t)
    fd_err = np.max(np.abs(sr.values(xs, t) - fd.interp(t, xs)))
    report("6", "finite-difference oracle", fd_err, 1e-4)


def test_criterion_7_contour_robustness(
    generic_two_semi, slab_config, three_infinite_config, three_finite_config
):
    cases = [
        ("two_semi_infinite", lambda num: solve_two_semi_infinite(generic_two_semi, num), 0.1,
         np.array([-0.8, 0.0, 0.6])),
        ("two_finite", lambda num: solve_two_finite_dirichlet(slab_config, num), 0.1,
         np.array([-0.5, 0.0, 0.5])),
        ("three_infinite", lambda num: solve_three_infinite(three_infinite_config, "restricted", num), 0.15,
         np.array([-0.7, 0.0, 0.7])),
        ("three_finite", lambda num: solve_three_finite(three_finite_config, num), 0.2,
         np.array([-0.5, 0.5, 1.5])),
    ]
    worst_r = 0.0
    worst_n = 0.0
    for name, build, t, xs in cases:
        vals = {r: build(Numerics(arc_radius=r, avoid_origin=True)).values(xs, t) for r in (0.5, 1.0, 2.0)}
        worst_r = max(
            worst_r,
            np.max(np.abs(vals[0.5] - vals[1.0])),
            np.max(np.abs(vals[2.0] - vals[1.0])),
        )
        coarse = build(Numerics(order=16)).values(xs, t)
        fine = build(Numerics(order=32)).values(xs, t)
        worst_n = max(worst_n, np.max(np.abs(coarse - fine)))
    report("7", "arc radius r in {0.5, 1, 2}", worst_r, 1e-8)
    report("7", "node-count doubling", worst_n, 1e-8)


def test_criterion_8_fd_self_convergence():
    left = fh.SampledInterval(lambda x: np.cos(np.pi * x / 2) ** 2, -1.0, 0.0)
    right = fh.SampledInterval(lambda x: np.cos(np.pi * x / 2) ** 2, 0.0, 1.0)
    cfg = fh.two_finite(1.0, 2.0, 1.0, 1.0, left_initial=left, right_initial=right)
    order = fd_self_convergence_order(cfg, 0.1, n_base=60)
    dev = abs(order - 2.0)
    report("8", f"self-convergence order {order:.3f}", dev, 0.2)
