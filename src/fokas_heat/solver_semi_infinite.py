"""Closed-form solution evaluators for the semi-infinite geometries.

Two problems are handled here:

* two semi-infinite layers meeting at x = 0, with prescribed far-field
  temperatures ``gamma`` (evaluated either from the transcribed final
  formulas or from an independent per-node linear solve of the global
  relations -- the built-in typo detector for the transcription);
* a finite layer (-a, a) between two semi-infinite layers with zero
  far-field values, in a ``restricted`` variant (middle and right initial
  data zero) and a ``full`` variant.

Formula-to-code map (two semi-infinite layers, transcribed path), with
v0 = u0 - gamma of each layer and V^L, V^R its transforms:

    u_left(x,t)  = gamma_L + W_L (1 + erf(x / (2 sigma_L sqrt t)))
                   + 1/(2 pi) int_R  e^{ikx - (sL k)^2 t} V^L(k) dk
                   + int_lower (sR-sL)/(2 pi (sL+sR)) e^{ikx-(sL k)^2 t} V^L(-k) dk
                   - int_lower sL/(pi (sL+sR))  e^{ikx-(sL k)^2 t} V^R(k sL/sR) dk
    u_right(x,t) = gamma_R + W_R (1 - erf(x / (2 sigma_R sqrt t)))  + mirrored terms

with W_L = sR (gamma_R - gamma_L)/(sL+sR), W_R = sL (gamma_L - gamma_R)/(sL+sR).
The left boundary-layer term carries (1 + erf), not (1 - erf): only that sign
matches the far-field limit u -> gamma_L as x -> -inf (the v-form of the same
formula, and every long-time test here, confirm it).
"""

from __future__ import annotations

import math

import numpy as np

from ._field import ExpSum, KernelTerm, LayerPlan, Numerics, SolutionField
from .core import Geometry, ProblemConfig, validate
from .errors import FokasHeatError
from .transforms import (
    ExpPolynomial,
    erf_real,
    transform_of,
)

TWO_PI = 2.0 * math.pi


def _feature_scale(config: ProblemConfig) -> float | None:
    rates = []
    for src in config.initial_data:
        if isinstance(src, ExpPolynomial):
            rates.extend(abs(complex(t.rate).real) for t in src.terms)
    if not rates:
        return None
    return 0.8 * min(rates)


# ---------------------------------------------------------------------------
# two semi-infinite layers


def solve_two_semi_infinite(
    config: ProblemConfig,
    numerics: Numerics | None = None,
    path: str = "transcribed",
) -> SolutionField:
    """Build the evaluator for the two-semi-infinite-layer problem.

    ``path="transcribed"`` evaluates the final solution formulas;
    ``path="linear_solve"`` re-derives the spectral interface functions at
    every quadrature node from the two global relations (with the
    row-symmetry substitutions) and integrates those instead.  The two paths
    agree to quadrature tolerance; they share only the plain Fourier
    inversion term of the initial data.
    """
    validate(config)
    if config.geometry != Geometry.TWO_SEMI_INFINITE:
        raise FokasHeatError("solve_two_semi_infinite requires two_semi_infinite geometry")
    if path not in ("transcribed", "linear_solve"):
        raise ValueError(f"unknown path {path!r}")

    sL, sR = config.sigmas
    gL, gR = config.far_field
    VL = transform_of(config.initial_data[0], (-math.inf, 0.0))
    VR = transform_of(config.initial_data[1], (0.0, math.inf))
    feat = _feature_scale(config)

    w_left = sR * (gR - gL) / (sL + sR)
    w_right = sL * (gL - gR) / (sL + sR)

    def closed_left(x, t):
        return gL + w_left * (1.0 + erf_real(x / (2.0 * sL * math.sqrt(t))))

    def closed_right(x, t):
        return gR + w_right * (1.0 - erf_real(x / (2.0 * sR * math.sqrt(t))))

    inv_left = KernelTerm("real", 1.0 / TWO_PI, transform=VL, arg_scale=1.0)
    inv_right = KernelTerm("real", 1.0 / TWO_PI, transform=VR, arg_scale=1.0)

    if path == "transcribed":
        left = LayerPlan(
            sL,
            terms=[
                inv_left,
                KernelTerm("lower", (sR - sL) / (TWO_PI * (sL + sR)), transform=VL, arg_scale=-1.0),
                KernelTerm("lower", -sL / (math.pi * (sL + sR)), transform=VR, arg_scale=sL / sR),
            ],
            closed_form=closed_left,
            needs_arc=False,
            feature_scale=feat,
        )
        right = LayerPlan(
            sR,
            terms=[
                inv_right,
                KernelTerm("upper", (sR - sL) / (TWO_PI * (sL + sR)), transform=VR, arg_scale=-1.0),
                KernelTerm("upper", sR / (math.pi * (sL + sR)), transform=VL, arg_scale=sR / sL),
            ],
            closed_form=closed_right,
            needs_arc=False,
            feature_scale=feat,
        )
        return SolutionField(config, [left, right], numerics, label="two_semi_infinite")

    # Linear-solve path: solve the 2x2 global-relation system per node for
    # the interface combinations of the shifted (zero-far-field) problem,
    # then invert.  The far-field boundary layer is added back through the
    # same closed erf form as above: its spectral image decays only like
    # 1/k, too slowly for the Gaussian truncation radius, while the data
    # channels -- the ones this path exists to cross-check -- are Gaussian.
    def solve_left(k, half, t):
        damp = np.exp(-((sL * k) ** 2) * t)
        r1 = -damp * VL(-k)
        r2 = -damp * VR(k * sL / sR)
        m = ((sR - sL) * r1 - 2.0 * sL * r2) / (sL + sR)
        return -m / TWO_PI

    def solve_right(k, half, t):
        damp = np.exp(-((sR * k) ** 2) * t)
        r1 = -damp * VR(-k)
        r2 = -damp * VL(k * sR / sL)
        c = (sR - sL) * (r1 + r2) / (sL + sR) + r2
        return -c / TWO_PI

    left = LayerPlan(
        sL,
        terms=[inv_left],
        closed_form=closed_left,
        solve_fn=solve_left,
        solve_halves=("lower",),
        needs_arc=False,
        feature_scale=feat,
    )
    right = LayerPlan(
        sR,
        terms=[inv_right],
        closed_form=closed_right,
        solve_fn=solve_right,
        solve_halves=("upper",),
        needs_arc=False,
        feature_scale=feat,
    )
    return SolutionField(config, [left, right], numerics, label="two_semi_infinite/linear")


# ---------------------------------------------------------------------------
# three layers, infinite outer extents


def delta_three_infinite_left(sL, sM, sR, a) -> ExpSum:
    """pi [ (sL-sM)(sM-sR) + e^{4 i a k sL/sM} (sL+sM)(sM+sR) ]; zeros off-axis."""
    return ExpSum(
        (
            (math.pi * (sL - sM) * (sM - sR), 0.0),
            (math.pi * (sL + sM) * (sM + sR), 4.0 * a * sL / sM),
        )
    )


def delta_three_infinite_right(sL, sM, sR, a) -> ExpSum:
    """pi [ (sL+sM)(sM+sR) + e^{4 i a k sR/sM} (sL-sM)(sM-sR) ]."""
    return ExpSum(
        (
            (math.pi * (sL + sM) * (sM + sR), 0.0),
            (math.pi * (sL - sM) * (sM - sR), 4.0 * a * sR / sM),
        )
    )


def _three_inf_left_layer(sL, sM, sR, a, TL, TM, TR, *, contour, sign, full):
    """Terms of the left-layer formula, parameterized so the mirrored call
    (sigma and transforms swapped, a -> -a, contour flipped with a sign)
    produces the right-layer formula."""
    dL = delta_three_infinite_left(sL, sM, sR, a)
    bracket = ExpSum(
        (
            ((sL + sM) * (sM - sR), 0.0),
            ((sL - sM) * (sM + sR), 4.0 * a * sL / sM),
        )
    )
    terms = [
        KernelTerm("real", 1.0 / TWO_PI, transform=TL, arg_scale=1.0),
        KernelTerm(
            contour, sign * (-0.5), shift=2.0 * a, coef=bracket, transform=TL, arg_scale=-1.0, delta=dL
        ),
    ]
    if full:
        terms += [
            KernelTerm(
                contour,
                sign * (-sL * (sM + sR)),
                shift=a + 3.0 * a * sL / sM,
                transform=TM,
                arg_scale=sL / sM,
                delta=dL,
            ),
            KernelTerm(
                contour,
                sign * (sL * (sR - sM)),
                shift=a + a * sL / sM,
                transform=TM,
                arg_scale=-sL / sM,
                delta=dL,
            ),
            KernelTerm(
                contour,
                sign * (-2.0 * sL * sM),
                shift=a + a * sL / sR + 2.0 * a * sL / sM,
                transform=TR,
                arg_scale=sL / sR,
                delta=dL,
            ),
        ]
    return terms


def solve_three_infinite(
    config: ProblemConfig,
    variant: str = "full",
    numerics: Numerics | None = None,
) -> SolutionField:
    """Build the evaluator for the three-layer infinite problem.

    ``variant="restricted"`` requires zero middle and right initial data and
    evaluates the shorter restricted formulas; ``variant="full"`` evaluates
    the general ones.  The right layer of the full variant is generated from
    the left-layer formula by the label swap (sigma_L <-> sigma_R, a -> -a)
    together with replacing every lower-contour integral by minus the
    upper-contour integral; the restricted variant transcribes its printed
    right-layer formula directly, and the two must agree on restricted data.
    """
    validate(config)
    if config.geometry != Geometry.THREE_INFINITE:
        raise FokasHeatError("solve_three_infinite requires three_infinite geometry")
    if variant not in ("restricted", "full"):
        raise ValueError(f"unknown variant {variant!r}")

    sL, sM, sR = config.sigmas
    a = config.layers[1].x_hi
    if variant == "restricted":
        for i in (1, 2):
            src = config.initial_data[i]
            if src is not None and not _is_zero_source(src):
                raise FokasHeatError(
                    "restricted variant requires zero middle and right initial data"
                )
    TL = transform_of(config.initial_data[0], (-math.inf, -a))
    TM = transform_of(config.initial_data[1], (-a, a))
    TR = transform_of(config.initial_data[2], (a, math.inf))
    feat = _feature_scale(config)

    full = variant == "full"
    left = LayerPlan(
        sL,
        terms=_three_inf_left_layer(sL, sM, sR, a, TL, TM, TR, contour="lower", sign=1.0, full=full),
        needs_arc=False,
        feature_scale=feat,
    )
    right = LayerPlan(
        sR,
        terms=_three_inf_left_layer(sR, sM, sL, -a, TR, TM, TL, contour="upper", sign=-1.0, full=full)
        if full
        else [
            KernelTerm(
                "upper",
                2.0 * sM * sR,
                shift=-a - a * sR / sL + 2.0 * a * sR / sM,
                transform=TL,
                arg_scale=sR / sL,
                delta=delta_three_infinite_right(sL, sM, sR, a),
            )
        ],
        needs_arc=False,
        feature_scale=feat,
    )

    dLs = delta_three_infinite_left(sL, sM, sR, a).scaled(sM / sL)
    dRs = delta_three_infinite_right(sL, sM, sR, a).scaled(sM / sR)
    mid_terms = [
        KernelTerm(
            "lower",
            -sM * (sM - sR),
            shift=a + a * sM / sL,
            transform=TL,
            arg_scale=-sM / sL,
            delta=dLs,
        ),
        KernelTerm(
            "upper",
            sM * (sM + sR),
            shift=a - a * sM / sL,
            transform=TL,
            arg_scale=sM / sL,
            delta=dRs,
        ),
    ]
    if full:
        mid_terms += [
            KernelTerm("real", 1.0 / TWO_PI, transform=TM, arg_scale=1.0),
            KernelTerm(
                "lower", 0.5 * (sL - sM) * (sM - sR), shift=0.0, transform=TM, arg_scale=1.0, delta=dLs
            ),
            KernelTerm(
                "lower",
                -sM * (sL + sM),
                shift=3.0 * a + a * sM / sR,
                transform=TR,
                arg_scale=sM / sR,
                delta=dLs,
            ),
            KernelTerm(
                "lower", -0.5 * (sL + sM) * (sM - sR), shift=2.0 * a, transform=TM, arg_scale=-1.0, delta=dLs
            ),
            KernelTerm(
                "upper", 0.5 * (sM - sL) * (sM + sR), shift=2.0 * a, transform=TM, arg_scale=1.0, delta=dRs
            ),
            KernelTerm(
                "upper", 0.5 * (sM - sL) * (sM - sR), shift=4.0 * a, transform=TM, arg_scale=-1.0, delta=dRs
            ),
            KernelTerm(
                "upper",
                sM * (sM - sL),
                shift=3.0 * a - a * sM / sR,
                transform=TR,
                arg_scale=-sM / sR,
                delta=dRs,
            ),
        ]
    middle = LayerPlan(sM, terms=mid_terms, needs_arc=False, feature_scale=feat)

    return SolutionField(config, [left, middle, right], numerics, label=f"three_infinite/{variant}")


def _is_zero_source(src) -> bool:
    if isinstance(src, ExpPolynomial):
        return all(t.coef == 0 for t in src.terms)
    return False
