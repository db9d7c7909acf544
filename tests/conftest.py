import math

import numpy as np
import pytest

import fokas_heat as fh
from fokas_heat.oracles import crank_nicolson, make_grid


@pytest.fixture
def fig5_config():
    """Two semi-infinite layers with sharply decaying quadratic-exponential data."""
    left = fh.ExpPolynomial((fh.ExpPolyTerm(1.0, 2, 625.0),), side="left")
    right = fh.ExpPolynomial((fh.ExpPolyTerm(1.0, 2, -900.0),), side="right")
    return fh.two_semi_infinite(0.02, 0.06, left_initial=left, right_initial=right)


@pytest.fixture
def generic_two_semi():
    left = fh.ExpPolynomial(
        (fh.ExpPolyTerm(1.0, 1, 2.0), fh.ExpPolyTerm(0.5, 0, 3.0)), side="left"
    )
    right = fh.ExpPolynomial((fh.ExpPolyTerm(-0.7, 2, -1.5),), side="right")
    return fh.two_semi_infinite(
        0.8, 1.7, gamma_left=0.4, gamma_right=-0.2, left_initial=left, right_initial=right
    )


@pytest.fixture
def slab_config():
    """Two finite layers, Dirichlet ends, nonzero initial data."""
    left = fh.SampledInterval(lambda x: np.cos(np.pi * x / 2) ** 2, -1.0, 0.0)
    right = fh.SampledInterval(lambda x: 0.5 * (1 - x) ** 2, 0.0, 1.0)
    return fh.two_finite(
        1.0, 2.0, 1.0, 1.0, left_value=0.3, right_value=1.0, left_initial=left, right_initial=right
    )


@pytest.fixture
def steady_slab_config():
    """The boundary-driven slab with the rational steady profile."""
    return fh.two_finite(1.0, 2.0, 1.0, 1.0, left_value=0.0, right_value=1.0)


def fd_self_convergence_order(config, t_end, n_base=80):
    """Observed Crank-Nicolson convergence order from three grids (h, h/2,
    h/4), Richardson style.

    dx and dt are halved together; probing happens on the coarsest grid's
    interior nodes, which all three grids share, so interpolation plays no
    part in the measured differences.
    """
    sols = []
    for mult in (1, 2, 4):
        grid = make_grid(config, n_base * mult, t_end=t_end, dt=t_end / (40 * mult))
        sols.append(crank_nicolson(config, grid, t_end))
    x_probe = sols[0].xs[2:-2]
    u1, u2, u3 = (s.interp(t_end, x_probe) for s in sols)
    e1 = float(np.max(np.abs(u1 - u2)))
    e2 = float(np.max(np.abs(u2 - u3)))
    return math.log2(e1 / e2)


def c1_left_halfline(a=0.6, rate=2.0):
    """(x+a)^2 e^{rate (x+a)} on (-inf, -a]: continuous with zero slope at -a."""
    import math

    s = math.exp(rate * a)
    return fh.ExpPolynomial(
        (
            fh.ExpPolyTerm(s, 2, rate),
            fh.ExpPolyTerm(2 * a * s, 1, rate),
            fh.ExpPolyTerm(a * a * s, 0, rate),
        ),
        side="left",
        endpoint=-a,
    )


@pytest.fixture
def three_infinite_config():
    return fh.three_infinite(1.0, 0.7, 1.4, 0.6, left_initial=c1_left_halfline(0.6))


@pytest.fixture
def three_finite_config():
    left = fh.SampledInterval(lambda x: np.sin(np.pi * x / 2) ** 2 * (1 + x), -1.0, 0.0)
    return fh.three_finite(1.0, 0.7, 1.4, 1.0, 1.0, 2.0, left_initial=left)


@pytest.fixture
def three_finite_full_config():
    left = fh.SampledInterval(lambda x: np.sin(np.pi * x / 2) ** 2 * (1 + x), -1.0, 0.0)
    mid = fh.SampledInterval(lambda x: 0.5 * np.sin(np.pi * x) ** 2, 0.0, 1.0)
    right = fh.SampledInterval(lambda x: 0.3 * np.sin(np.pi * (x - 1)) ** 2, 1.0, 2.0)
    return fh.three_finite(
        1.0, 0.7, 1.4, 1.0, 1.0, 2.0, left_initial=left, middle_initial=mid, right_initial=right
    )
