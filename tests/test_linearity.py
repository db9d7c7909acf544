"""Linearity: the solution for the sum of two data sets is the sum of the
two solutions.

Every datum enters the solution formulas linearly (initial profiles through
their transforms, end and far-field temperatures through closed forms and
time transforms), so u_{f+g} = u_f + u_g up to the quadrature error of the
three solves, which for these data sits at rounding level.  No oracle is
needed.
"""

import math

import numpy as np
import pytest

import fokas_heat as fh

E, T, S = fh.ExpPolynomial, fh.ExpPolyTerm, fh.SampledInterval


def _profile(src):
    return src.profile if isinstance(src, S) else src


def _plus(p, q):
    """Sum of two data items: numbers, ExpPolynomial or SampledInterval."""
    if p is None or q is None:
        return q if p is None else p
    if isinstance(p, (int, float)):
        return p + q
    if isinstance(p, E) and isinstance(q, E):
        assert (p.side, p.endpoint) == (q.side, q.endpoint)
        return E(p.terms + q.terms, side=p.side, endpoint=p.endpoint)
    box = p if isinstance(p, S) else q
    fp, fq = _profile(p), _profile(q)
    return S(lambda x: fp(x) + fq(x), box.x_lo, box.x_hi)


def _c1_left(a, rate, amp):
    """amp (x+a)^2 e^{rate (x+a)} on (-inf, -a]."""
    s = amp * math.exp(rate * a)
    return E((T(s, 2, rate), T(2 * a * s, 1, rate), T(a * a * s, 0, rate)), "left", -a)


def _two_semi_infinite():
    def make(left, right, gl, gr):
        return fh.two_semi_infinite(
            0.8, 1.7, gamma_left=gl, gamma_right=gr, left_initial=left, right_initial=right
        )

    f = (
        E((T(1.0, 1, 2.0), T(0.5, 0, 3.0)), "left"),
        E((T(-0.7, 2, -1.5),), "right"),
        0.4,
        -0.2,
    )
    g = (E((T(0.8, 2, 1.2),), "left"), E((T(0.3, 0, -2.5), T(0.2, 1, -1.0)), "right"), -0.1, 0.2)
    return make, f, g, np.linspace(-2.0, 2.0, 9)


def _two_finite():
    def make(left, right, vl, vr):
        return fh.two_finite(
            1.0, 2.0, 1.0, 1.0, left_value=vl, right_value=vr, left_initial=left, right_initial=right
        )

    f = (
        S(lambda x: np.cos(np.pi * x / 2) ** 2, -1.0, 0.0),
        S(lambda x: 0.5 * (1 - x) ** 2, 0.0, 1.0),
        0.3,
        1.0,
    )
    g = (
        S(lambda x: x * (1 + x) * np.exp(x), -1.0, 0.0),
        E((T(0.6, 1, -2.0),), "right"),
        -0.5,
        0.2,
    )
    return make, f, g, np.linspace(-0.95, 0.95, 9)


def _three_infinite():
    a = 0.6

    def make(left, middle, right):
        return fh.three_infinite(
            1.0, 0.7, 1.4, a, left_initial=left, middle_initial=middle, right_initial=right
        )

    f = (_c1_left(a, 2.0, 1.0), S(lambda x: np.cos(np.pi * x / (2 * a)) ** 2, -a, a), None)
    g = (_c1_left(a, 3.0, -0.4), S(lambda x: 0.3 * x, -a, a), E((T(0.5, 2, -2.0),), "right", a))
    return make, f, g, np.linspace(-3.0, 3.0, 13)


def _three_finite():
    def make(left, middle, right):
        return fh.three_finite(
            1.0, 0.7, 1.4, 1.0, 1.0, 2.0, left_initial=left, middle_initial=middle, right_initial=right
        )

    f = (
        S(lambda x: np.sin(np.pi * x / 2) ** 2 * (1 + x), -1.0, 0.0),
        S(lambda x: 0.4 * np.sin(np.pi * x) ** 2, 0.0, 1.0),
        None,
    )
    g = (
        S(lambda x: 0.2 + 0 * x, -1.0, 0.0),
        E((T(0.5, 1, -1.0),), "right"),
        S(lambda x: (x - 1) * (2 - x), 1.0, 2.0),
    )
    return make, f, g, np.linspace(-0.95, 1.95, 11)


@pytest.mark.parametrize(
    "case", [_two_semi_infinite, _two_finite, _three_infinite, _three_finite], ids=lambda c: c.__name__[1:]
)
def test_solution_of_sum_is_sum_of_solutions(case):
    make, f, g, xs = case()
    fg = tuple(_plus(p, q) for p, q in zip(f, g))
    sols = [fh.solve(make(*data)) for data in (f, g, fg)]
    layers = sols[0].config.layers
    for t in (0.05, 0.3):
        diffs = [sols[2].values(xs, t) - sols[0].values(xs, t) - sols[1].values(xs, t)]
        # both one-sided limits at every interface
        for idx, layer in enumerate(layers):
            for x_end in (layer.x_lo, layer.x_hi):
                if math.isfinite(x_end) and any(x_end in (o.x_lo, o.x_hi) for o in layers if o is not layer):
                    uf, ug, ufg = (s.values_in_layer(idx, [x_end], t) for s in sols)
                    diffs.append(ufg - uf - ug)
        scale = float(np.max(np.abs(sols[2].values(xs, t))))
        assert scale > 0.1
        err = max(float(np.max(np.abs(d))) for d in diffs)
        assert err <= 1e-12 * scale, f"t={t}: |u_f+g - u_f - u_g| = {err:.2e}, max|u| = {scale:.2e}"
