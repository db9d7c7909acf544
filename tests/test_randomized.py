"""Seeded randomized cross-checks across configuration space.

These complement the fixed-configuration tests: every draw varies the
diffusivities, widths, end data, and initial profiles together, so a slip
that happens to cancel for one configuration still gets caught.
"""

import numpy as np
import pytest

import fokas_heat as fh
from fokas_heat.oracles import classical_series_two_finite, crank_nicolson, make_grid
from fokas_heat.solver_finite import solve_three_finite, solve_two_finite_dirichlet
from fokas_heat.solver_semi_infinite import solve_two_semi_infinite


def random_two_finite(rng):
    sL, sR = rng.uniform(0.5, 2.2, 2)
    a, b = rng.uniform(0.6, 1.6, 2)
    gl, gr = rng.uniform(-1.5, 1.5, 2)
    c1, c2 = rng.uniform(-1.0, 1.0, 2)
    left = fh.SampledInterval(lambda x, c=c1: c * np.cos(np.pi * x / 2) ** 2 * (1 + x / a), -a, 0.0)
    right = fh.SampledInterval(lambda x, c=c2: c * np.sin(np.pi * x / b) ** 2, 0.0, b)
    return fh.two_finite(
        sL, sR, a, b, left_value=gl, right_value=gr, left_initial=left, right_initial=right
    )


def test_dual_path_agreement_randomized():
    rng = np.random.default_rng(424242)
    for trial in range(6):
        cfg = random_two_finite(rng)
        st = solve_two_finite_dirichlet(cfg)
        sl = solve_two_finite_dirichlet(cfg, path="linear_solve")
        a, b = -cfg.layers[0].x_lo, cfg.layers[1].x_hi
        xs = np.linspace(-0.97 * a, 0.97 * b, 9)
        t = float(rng.uniform(0.05, 0.5))
        diff = np.max(np.abs(st.values(xs, t) - sl.values(xs, t)))
        assert diff < 1e-8, f"trial {trial}: dual-path diff {diff:.2e}"


def test_series_agreement_randomized():
    rng = np.random.default_rng(77)
    for trial in range(4):
        cfg = random_two_finite(rng)
        sol = solve_two_finite_dirichlet(cfg)
        ser = classical_series_two_finite(cfg, 60)
        a, b = -cfg.layers[0].x_lo, cfg.layers[1].x_hi
        xs = np.linspace(-0.95 * a, 0.95 * b, 9)
        t = float(rng.uniform(0.05, 0.4))
        diff = np.max(np.abs(sol.values(xs, t) - ser.values(xs, t)))
        assert diff < 1e-6, f"trial {trial}: series diff {diff:.2e}"


def test_two_semi_infinite_dual_path_randomized():
    rng = np.random.default_rng(9001)
    for trial in range(6):
        sL, sR = rng.uniform(0.4, 2.5, 2)
        gl, gr = rng.uniform(-1.0, 1.0, 2)
        left = fh.ExpPolynomial(
            (
                fh.ExpPolyTerm(rng.uniform(-1, 1), int(rng.integers(0, 3)), rng.uniform(0.8, 4.0)),
            ),
            side="left",
        )
        right = fh.ExpPolynomial(
            (
                fh.ExpPolyTerm(rng.uniform(-1, 1), int(rng.integers(0, 3)), -rng.uniform(0.8, 4.0)),
            ),
            side="right",
        )
        cfg = fh.two_semi_infinite(
            sL, sR, gamma_left=gl, gamma_right=gr, left_initial=left, right_initial=right
        )
        st = solve_two_semi_infinite(cfg)
        sl = solve_two_semi_infinite(cfg, path="linear_solve")
        xs = np.array([-1.4, -0.5, 0.0, 0.4, 1.1])
        t = float(rng.uniform(0.05, 0.6))
        diff = np.max(np.abs(st.values(xs, t) - sl.values(xs, t)))
        assert diff < 1e-9, f"trial {trial}: dual-path diff {diff:.2e}"


def test_three_finite_vs_fd_randomized():
    rng = np.random.default_rng(31337)
    for trial in range(3):
        sL, sM, sR = rng.uniform(0.6, 1.8, 3)
        a, b = rng.uniform(0.7, 1.3, 2)
        c = b + rng.uniform(0.7, 1.3)
        amp = rng.uniform(-1.0, 1.0)
        left = fh.SampledInterval(
            lambda x, A=amp, aa=a: A * np.sin(np.pi * x / aa) ** 2 * (1 + x / aa), -a, 0.0
        )
        mid = fh.SampledInterval(lambda x, bb=b: 0.4 * np.sin(np.pi * x / bb) ** 2, 0.0, b)
        cfg = fh.three_finite(sL, sM, sR, a, b, c, left_initial=left, middle_initial=mid)
        sol = solve_three_finite(cfg)
        t = 0.15
        xs = np.linspace(-0.9 * a, b + 0.9 * (c - b), 9)
        grid = make_grid(cfg, 900, t_end=t, dt=t / 900)
        fd = crank_nicolson(cfg, grid, t)
        diff = np.max(np.abs(sol.values(xs, t) - fd.interp(t, xs)))
        assert diff < 5e-4, f"trial {trial}: FD diff {diff:.2e}"


def test_three_finite_reflection_randomized():
    rng = np.random.default_rng(55)
    for trial in range(3):
        sL, sM, sR = rng.uniform(0.6, 1.8, 3)
        a, b = rng.uniform(0.7, 1.3, 2)
        c = b + rng.uniform(0.7, 1.3)
        left = fh.SampledInterval(lambda x, aa=a: np.cos(np.pi * x / (2 * aa)) ** 4, -a, 0.0)
        cfg = fh.three_finite(sL, sM, sR, a, b, c, left_initial=left)
        sol = solve_three_finite(cfg)
        msol = solve_three_finite(fh.mirrored(cfg))
        xs = np.linspace(-0.9 * a, b + 0.9 * (c - b), 7)
        t = 0.2
        np.testing.assert_allclose(sol.values(xs, t), msol.values(b - xs, t), atol=1e-8)
