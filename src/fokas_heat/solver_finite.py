"""Closed-form solution evaluators for the finite geometries.

Handles the two-layer slab (-a, 0) | (0, b) with Dirichlet end temperatures
and the three-layer slab (-a, 0) | (0, b) | (b, c) with insulated ends, plus
the denominator functions whose real zeros are the classical eigenvalues and
the piecewise-linear steady states.

Two evaluation paths exist for the two-layer slab:

* ``linear_solve`` (the default) -- the global-relation assembler that the
  three-layer slab uses too;
* ``transcribed`` -- the final solution formulas term by term, kept as
  ``verify``'s ``dual_path_agreement`` cross-check.

The assembler (``_global_relation_solve``) takes any list of finite layers.
At every quadrature node it solves the matched-frequency global relations
of all layers at +-k, two per layer, for the damped value and flux
transforms at every edge: interfaces share both, and each end fixes one
(Dirichlet data moves to the right-hand side; an insulated end has zero
flux).  The evolution-transform terms are dropped since their integrals
vanish.  Each layer then integrates one rule (``_layer_integrand``): its
right edge's combination over the lower contour and its left edge's over
the upper one.

The assembler is an independent derivation executed numerically; it is the
in-repo detector for transcription slips in the transcribed path, and the
two must agree to quadrature tolerance (test_two_finite.py checks them
kernel by kernel and value by value).

TRANSCRIPTION_CORRECTIONS below records every place where the transcribed
path deviates from its published source; each entry was located by the
dual-path comparison and confirmed by the per-channel kernel extraction
test, the classical-series oracle, or both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._field import ExpSum, KernelTerm, LayerPlan, Numerics, SolutionField
from .core import Geometry, ProblemConfig, validate
from .errors import FokasHeatError, SingularNode
from .transforms import transform_of

TWO_PI = 2.0 * math.pi

# Formula-to-code map of deliberate deviations in the transcribed path.
# Keys name the solution formula and term; values say what was printed and
# what the dual-path/series checks confirm it must be.
TRANSCRIPTION_CORRECTIONS = {
    "two_finite.left.real_inversion": "printed without the 1/(2 pi) Fourier prefactor; restored",
    "two_finite.right.real_inversion": "printed without the 1/(2 pi) Fourier prefactor; restored",
    "two_finite.left.upper.f_right": "printed spurious factor (1 + sigma_L sigma_R); must be 1 "
    "(identical to its lower-contour twin)",
    "two_finite.right.lower.f_right": "printed without (sigma_L + sigma_R) on the second "
    "exponential; restored",
    "two_finite.right.upper.f_right": "printed sigma_R where sigma_R^2 belongs in the first "
    "exponential; restored",
    "two_finite.right.u0_right_plus": "the two u0-right(+k) kernels are swapped between the "
    "contours as printed (the printed placement even grows along its contour); un-swapped",
    "two_finite.boundary_lift": "the end-value kernels decay only like 1/k, making their "
    "contour integrals direction-sensitive at the slab ends (the formulas hold on the open "
    "interval); both paths therefore split off the piecewise-linear steady profile of the "
    "end-value limits (the standard steady-plus-transient superposition) and evolve the "
    "homogenized problem, whose kernels are all Gaussian-decaying",
    "three_finite.formulas": "the printed three-layer insulated-slab kernels and their "
    "denominator are inconsistent with the problem they solve: at equal sigmas the printed "
    "denominator vanishes at k = n pi/(a+c-2b) instead of the single-slab eigenvalues "
    "n pi/(a+c), and the evaluated field breaks interface continuity and disagrees with the "
    "finite-difference and cosine-series oracles by O(1) in every layer (beyond the two "
    "locally fixable slips flagged up front).  The solver therefore derives the solution "
    "per node from the six matched-frequency global relations (the same elimination that "
    "produces the printed formulas), with the denominator rebuilt from the eigencondition; "
    "conservation, continuity, the equal-sigma cosine series, reflection symmetry, and the "
    "finite-difference oracle all confirm the derived evaluation",
    "three_infinite.middle_full.real_inversion": "printed prefactor 1/2; must be 1/(2 pi)",
}


# ---------------------------------------------------------------------------
# denominator functions


def delta_two_finite_left(sL, sR, a, b) -> ExpSum:
    """Denominator of the two-layer slab, 4 exponentials, zero at 0.

    All zeros lie on the real axis (the node guards check that |Delta|
    stays bounded away from zero on the deformed contours).
    """
    bp = b * sL / sR
    return ExpSum(
        (
            (math.pi * (sL + sR), 2 * a + 2 * bp),
            (math.pi * (sL - sR), 2 * bp),
            (-math.pi * (sL - sR), 2 * a),
            (-math.pi * (sL + sR), 0.0),
        )
    )


def delta_two_finite_right(sL, sR, a, b) -> ExpSum:
    """Right-variable denominator: the left one at argument k sigma_R/sigma_L."""
    return delta_two_finite_left(sL, sR, a, b).scaled(sR / sL)


def delta_two_finite_real_form(sL, sR, a, b):
    """Real oscillatory factor G with Delta = 4 i pi e^{ik(a+b sL/sR)} G(k).

    G(k) = sL cos(ak) sin(b' k) + sR sin(ak) cos(b' k), b' = b sL/sR; its
    positive zeros are the eigenvalues of the composite slab.  Dominant
    frequency a + b', so brackets of width pi/(2(a+b')) isolate the roots.
    """
    bp = b * sL / sR

    def g(k):
        k = np.asarray(k, dtype=float)
        return sL * np.cos(a * k) * np.sin(bp * k) + sR * np.sin(a * k) * np.cos(bp * k)

    return g


def delta_three_finite(sL, sM, sR, a, b, c) -> ExpSum:
    """Three-layer denominator in the left wavenumber k (8 exponentials, zero at the origin).

    Derived from the insulated-slab eigencondition rather than transcribed
    (see TRANSCRIPTION_CORRECTIONS["three_finite.formulas"]): with
    alpha = ka, beta = k b sigma_L/sigma_M, rho = k (c-b) sigma_L/sigma_R,

        E(k) = sM^2 cos(al) sin(be) cos(rh) + sL sM sin(al) cos(be) cos(rh)
             + sM sR cos(al) cos(be) sin(rh) - sL sR sin(al) sin(be) sin(rh)

    whose positive zeros are the composite eigenvalues (at equal sigmas E
    reduces to sigma^2 sin(k(a+c)), the single-slab condition), and the
    exponential-sum form below equals (8i/sM) e^{i(al+be+rh)} E times pi.
    """
    pi = math.pi
    B = b * sL / sM
    P = (c - b) * sL / sR
    terms = (
        ((sM - sL) * (sM - sR), 2 * B),
        ((sL - sM) * (sM - sR), 2 * (a + P)),
        ((sL + sM) * (sM - sR), 2 * (a + B)),
        ((sL + sM) * (sR - sM), 2 * P),
        ((sL - sM) * (sM + sR), 2 * a),
        ((sM - sL) * (sM + sR), 2 * (B + P)),
        ((sL + sM) * (sM + sR), 2 * (a + B + P)),
        (-(sL + sM) * (sM + sR), 0.0),
    )
    return ExpSum(tuple((pi * cc, q) for cc, q in terms))


# ---------------------------------------------------------------------------
# steady states


@dataclass(frozen=True)
class SteadyState:
    """Piecewise-linear long-time limit: one (slope, intercept) per layer."""

    breaks: tuple[float, ...]
    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        idx = np.clip(np.searchsorted(self.breaks[1:-1], x, side="right"), 0, len(self.slopes) - 1)
        for i in range(len(self.slopes)):
            sel = idx == i
            out[sel] = self.slopes[i] * x[sel] + self.intercepts[i]
        return out if out.shape else float(out)


def steady_state(config: ProblemConfig) -> SteadyState:
    """Long-time limit of the two-layer Dirichlet slab.

    With end temperatures gamma_L at -a and gamma_R at b:

        slope_left  = sR^2 (gR - gL) / (b sL^2 + a sR^2)
        slope_right = sL^2 (gR - gL) / (b sL^2 + a sR^2)
        intercept   = (b gL sL^2 + a gR sR^2) / (b sL^2 + a sR^2)  (shared)

    Continuity at 0 is immediate; flux continuity holds because
    sL^2 slope_left = sR^2 slope_right identically.
    """
    validate(config)
    if config.geometry != Geometry.TWO_FINITE:
        raise FokasHeatError("steady_state requires the two_finite geometry")
    sL, sR = config.sigmas
    a = -config.layers[0].x_lo
    b = config.layers[1].x_hi
    gL = config.end_left.data.limit_at_infinity() / config.end_left.alpha_u
    gR = config.end_right.data.limit_at_infinity() / config.end_right.alpha_u
    den = b * sL**2 + a * sR**2
    intercept = (b * gL * sL**2 + a * gR * sR**2) / den
    return SteadyState(
        breaks=(-a, 0.0, b),
        slopes=(sR**2 * (gR - gL) / den, sL**2 * (gR - gL) / den),
        intercepts=(intercept, intercept),
    )


# ---------------------------------------------------------------------------
# finite layers bound by their global relations


def _global_relation_solve(sigmas, edges, k, half, data, h0, delta):
    """Solve the matched-frequency global relations of N finite layers at each node.

    Layer j on (l, r) = (edges[j], edges[j+1]) has the wavenumber
    kappa_j = k sigma_0/sigma_j, so every layer shares omega = (sigma_0 k)^2,
    and one global relation at each of q = +kappa_j and q = -kappa_j:

        e^{-iqr} (F_r + iq sigma_j^2 V_r) - e^{-iql} (F_l + iq sigma_j^2 V_l)
            = -e^{-omega t} u_j-hat(q)

    with the evolution term dropped (its contour integrals vanish).  V_p
    and F_p are the e^{-omega t}-damped time transforms of u and of
    sigma^2 u_x at edge p, so an interface shares both by continuity of
    temperature and flux.  An insulated end fixes F = 0; a Dirichlet end
    fixes V to its known value, which moves to the right-hand side.  Each
    row is divided by its dominant end exponential (r where Im q > 0, l
    where Im q < 0), so every entry stays bounded.

    ``data[j]`` is the pair e^{-omega t} u_j-hat(+-kappa_j) with that same
    dominant-endpoint offset removed, as ``eval_scaled`` returns it;
    ``h0`` is the damped end-value transform at the left and right ends,
    None for an insulated end; ``delta`` is the geometry's left-variable
    denominator, whose near-zeros make the system singular.  Returns the
    lists (V, F), one array per edge.
    """
    dv, _ = delta.eval_scaled(k, half)
    amax = float(np.max(np.abs(dv))) if dv.size else 0.0
    if amax == 0.0 or float(np.min(np.abs(dv))) < 1e-12 * amax:
        raise SingularNode("finite-layer system singular at a contour node")

    n = len(sigmas)
    end_v = {0: h0[0], n: h0[1]}
    # unknown columns: V and F at every edge, less the one each end fixes
    col_v, col_f = {}, {}
    for p in range(n + 1):
        if end_v.get(p) is None:
            col_v[p] = len(col_v) + len(col_f)
        if p not in end_v or end_v[p] is not None:
            col_f[p] = len(col_v) + len(col_f)

    A = np.zeros(k.shape + (2 * n, 2 * n), dtype=complex)
    rhs = np.empty(k.shape + (2 * n,), dtype=complex)
    sgn = -1.0 if half == "lower" else 1.0
    for j, sig in enumerate(sigmas):
        kap = k * (sigmas[0] / sig)
        small = np.exp(sgn * 1j * kap * (edges[j + 1] - edges[j]))  # |.| < 1 on this half
        for i, sq in enumerate((1.0, -1.0)):
            row = 2 * j + i
            iqs2 = sq * 1j * kap * sig**2
            # r dominates where Im q > 0, i.e. where q = sq kappa lies upper
            c_r, c_l = (1.0, -small) if sq * sgn > 0 else (small, -1.0)
            rhs[..., row] = -data[j][i]
            for p, c in ((j + 1, c_r), (j, c_l)):
                if p in col_f:
                    A[..., row, col_f[p]] = c
                if p in col_v:
                    A[..., row, col_v[p]] = c * iqs2
                else:
                    rhs[..., row] -= c * iqs2 * end_v[p]
    sol = np.linalg.solve(A, rhs[..., None])[..., 0]
    zero = np.zeros(k.shape, dtype=complex)
    V = [sol[..., col_v[p]] if p in col_v else end_v[p] for p in range(n + 1)]
    F = [sol[..., col_f[p]] if p in col_f else zero for p in range(n + 1)]
    return V, F


def _layer_integrand(sigma, edges, i, kappa, half, V, F):
    """Layer i's nodal integrand on one half contour, in its wavenumber kappa.

    The lower half integrates -(F_r + i kappa sigma^2 V_r) e^{i kappa (x-r)}/2pi
    and the upper half the same at l.  The factor e^{-i kappa e} of the
    edge e used is folded into the values where it is bounded on the half
    (e Im kappa <= 0); otherwise the values return as a ``(vals, -e)`` piece,
    whose x offset the evaluator applies inside one exponential.
    """
    p = i + 1 if half == "lower" else i
    e = edges[p]
    vals = -(F[p] + 1j * kappa * sigma**2 * V[p]) / TWO_PI
    if e == 0.0:
        return vals
    if (e < 0.0) == (half == "upper"):
        return vals * np.exp(-1j * kappa * e)
    return [(vals, -e)]


def _data_channels(transforms, sigmas, ends, k, t):
    """The damped data channels of ``_global_relation_solve`` at nodes k.

    ``ends`` holds (BoundaryData, alpha_u) for a Dirichlet end and None for
    an insulated one.
    """
    om = (sigmas[0] * k) ** 2
    damp = np.exp(-om * t)
    data = []
    for T, sig in zip(transforms, sigmas):
        kap = k * (sigmas[0] / sig)
        data.append((damp * T.eval_scaled(kap)[0], damp * T.eval_scaled(-kap)[0]))
    h0 = tuple(
        None if end is None else end[0].scaled_time_transform(om, t) / end[1] for end in ends
    )
    return data, h0


def _finite_layer_plans(config, transforms, ends, delta, closed_form=None) -> list[LayerPlan]:
    """Layer plans of finite layers bound only by their global relations.

    Each layer inverts its initial transform on the real line and adds its
    ``_layer_integrand`` over both half contours; every call solves the
    whole system at the matched left wavenumber k = kappa sigma_i/sigma_0.
    ``ends`` is as in ``_data_channels``; ``delta`` is the left-variable
    denominator.
    """
    sigmas = config.sigmas
    edges = (config.layers[0].x_lo,) + tuple(layer.x_hi for layer in config.layers)
    widths = [hi - lo for lo, hi in zip(edges[:-1], edges[1:])]
    has_bdata = any(end is not None and not end[0].is_zero for end in ends)

    def make_solve(i):
        sig = sigmas[i]
        ratio = sig / sigmas[0]

        # captures ``transforms`` itself: perfbench's tracer reads the
        # transforms a solve evaluates from its closure cells
        def solve(kappa, half, t):
            k = kappa * ratio
            data, h0 = _data_channels(transforms, sigmas, ends, k, t)
            V, F = _global_relation_solve(sigmas, edges, k, half, data, h0, delta)
            return _layer_integrand(sig, edges, i, kappa, half, V, F)

        return solve

    return [
        LayerPlan(
            sig,
            terms=[KernelTerm("real", 1.0 / TWO_PI, transform=T, arg_scale=1.0)],
            solve_fn=make_solve(i),
            solve_halves=("lower", "upper"),
            needs_arc=True,
            # every layer's data reaches layer i through the system
            osc_pad=2 * sum(w * (sig / s) for w, s in zip(widths, sigmas)),
            tail_gap=_exp_sum_min_gap(delta.scaled(sig / sigmas[0])) if has_bdata else None,
            closed_form=closed_form,
        )
        for i, (sig, T) in enumerate(zip(sigmas, transforms))
    ]


# ---------------------------------------------------------------------------
# two finite layers, Dirichlet ends


def _exp_sum_min_gap(*expsums) -> float:
    """Smallest positive difference between exponent offsets.

    Controls how fast the 1/k tails of boundary-data kernels pair-cancel
    between the two rays of a contour; the contour must reach past
    ln(1e14)/(sin theta * gap) for those kernels to integrate accurately.
    """
    offsets = sorted({q for es in expsums for _, q in es.terms})
    gaps = [b - a for a, b in zip(offsets[:-1], offsets[1:]) if b - a > 1e-12]
    return min(gaps) if gaps else 1.0


def _two_finite_setup(config):
    """Shared pieces of both two-finite paths: the steady lift from the
    end-value limits, homogenized initial-data transforms, residual
    (decaying) boundary data and the ends' value coefficients."""
    from .transforms import SampledInterval

    sL, sR = config.sigmas
    a = -config.layers[0].x_lo
    b = config.layers[1].x_hi
    lift = steady_state(config)
    bdL = config.end_left.data.residual()
    bdR = config.end_right.data.residual()

    def shifted(src, lo, hi):
        if src is None:
            return SampledInterval(lambda x: -np.asarray(lift(x), dtype=float), lo, hi)
        return SampledInterval(
            lambda x, _s=src: np.real(np.asarray(_s(x), dtype=complex)) - lift(x), lo, hi
        )

    TL = transform_of(shifted(config.initial_data[0], -a, 0.0), (-a, 0.0))
    TR = transform_of(shifted(config.initial_data[1], 0.0, b), (0.0, b))
    dL = delta_two_finite_left(sL, sR, a, b)
    a1, a3 = config.end_left.alpha_u, config.end_right.alpha_u
    return sL, sR, a, b, TL, TR, bdL, bdR, a1, a3, lift, dL


def _two_finite_transcribed_plans(config) -> list[LayerPlan]:
    """Kernel term lists of the final two-layer solution formulas.

    Applied to the steady-lifted problem: initial transforms carry u0 minus
    the steady profile, end-value kernels carry the decaying residual data
    only, and the steady profile returns through the closed form.  Shifts
    and brackets follow the printed formulas except where
    TRANSCRIPTION_CORRECTIONS applies.  b' = b sL/sR and a' = a sR/sL are
    the opposite-layer widths as seen from each side's wavenumber.
    """
    sL, sR, a, b, TL, TR, bdL, bdR, a1, a3, lift, dL = _two_finite_setup(config)
    bp = b * sL / sR
    ap = a * sR / sL
    dR = delta_two_finite_right(sL, sR, a, b)

    # left layer, wavenumber k, ohm = (sL k)^2
    f_right_L = dict(
        const=-2j * sL**2 * sR / a3, shift=2 * a + bp, k_power=1, kind="boundary", bdata=bdR, delta=dL
    )
    f_left_L = dict(
        const=1j * sL**2 / a1,
        shift=a,
        coef=ExpSum((((sL + sR), 0.0), (-(sL - sR), 2 * bp))),
        k_power=1,
        kind="boundary",
        bdata=bdL,
        delta=dL,
    )
    left_bd = [] if bdL.is_zero and bdR.is_zero else [
        KernelTerm("lower", **f_right_L),
        KernelTerm("lower", **f_left_L),
        KernelTerm("upper", **f_left_L),
        # corrected: printed twin carried a spurious (1 + sL sR)
        KernelTerm("upper", **f_right_L),
    ]
    left_terms = left_bd + [
        KernelTerm("real", 1.0 / TWO_PI, transform=TL, arg_scale=1.0),
        KernelTerm(
            "lower",
            0.5,
            coef=ExpSum(((-(sL + sR), 0.0), ((sL - sR), 2 * bp))),
            transform=TL,
            arg_scale=1.0,
            delta=dL,
        ),
        KernelTerm(
            "lower",
            0.5,
            shift=2 * a,
            coef=ExpSum((((sL + sR), 0.0), ((sR - sL), 2 * bp))),
            transform=TL,
            arg_scale=-1.0,
            delta=dL,
        ),
        KernelTerm("lower", -sL, shift=2 * a + 2 * bp, transform=TR, arg_scale=sL / sR, delta=dL),
        KernelTerm("lower", sL, shift=2 * a, transform=TR, arg_scale=-sL / sR, delta=dL),
        KernelTerm(
            "upper",
            0.5,
            shift=2 * a,
            coef=ExpSum(((-(sR - sL), 0.0), (-(sL + sR), 2 * bp))),
            transform=TL,
            arg_scale=1.0,
            delta=dL,
        ),
        KernelTerm(
            "upper",
            0.5,
            shift=2 * a,
            coef=ExpSum((((sL + sR), 0.0), ((sR - sL), 2 * bp))),
            transform=TL,
            arg_scale=-1.0,
            delta=dL,
        ),
        KernelTerm("upper", -sL, shift=2 * a + 2 * bp, transform=TR, arg_scale=sL / sR, delta=dL),
        KernelTerm("upper", sL, shift=2 * a, transform=TR, arg_scale=-sL / sR, delta=dL),
    ]

    # right layer, wavenumber kappa, ohm = (sR kappa)^2
    f_left_R = dict(
        const=2j * sL * sR**2 / a1, shift=ap, k_power=1, kind="boundary", bdata=bdL, delta=dR
    )
    # corrected: (sL + sR) restored on the second exponential / sigma_R^2 on the first
    f_right_R = dict(
        const=-1j * sR**2 / a3,
        shift=b,
        coef=ExpSum((((sL - sR), 0.0), ((sL + sR), 2 * ap))),
        k_power=1,
        kind="boundary",
        bdata=bdR,
        delta=dR,
    )
    right_bd = [] if bdL.is_zero and bdR.is_zero else [
        KernelTerm("lower", **f_left_R),
        KernelTerm("lower", **f_right_R),
        KernelTerm("upper", **f_left_R),
        KernelTerm("upper", **f_right_R),
    ]
    right_terms = right_bd + [
        KernelTerm("real", 1.0 / TWO_PI, transform=TR, arg_scale=1.0),
        KernelTerm("lower", -sR, shift=0.0, transform=TL, arg_scale=sR / sL, delta=dR),
        KernelTerm("lower", sR, shift=2 * ap, transform=TL, arg_scale=-sR / sL, delta=dR),
        # corrected: the printed u0-right(+k) kernels sit on the wrong contours
        KernelTerm(
            "lower",
            0.5,
            coef=ExpSum(((-(sL + sR), 0.0), ((sR - sL), 2 * ap))),
            transform=TR,
            arg_scale=1.0,
            delta=dR,
        ),
        KernelTerm(
            "lower",
            0.5,
            coef=ExpSum((((sL - sR), 0.0), ((sL + sR), 2 * ap))),
            transform=TR,
            arg_scale=-1.0,
            delta=dR,
        ),
        KernelTerm("upper", -sR, shift=0.0, transform=TL, arg_scale=sR / sL, delta=dR),
        KernelTerm("upper", sR, shift=2 * ap, transform=TL, arg_scale=-sR / sL, delta=dR),
        KernelTerm(
            "upper",
            0.5,
            shift=2 * b,
            coef=ExpSum(((-(sL - sR), 0.0), (-(sL + sR), 2 * ap))),
            transform=TR,
            arg_scale=1.0,
            delta=dR,
        ),
        KernelTerm(
            "upper",
            0.5,
            coef=ExpSum((((sL - sR), 0.0), ((sL + sR), 2 * ap))),
            transform=TR,
            arg_scale=-1.0,
            delta=dR,
        ),
    ]
    has_bdata = not (bdL.is_zero and bdR.is_zero)
    gap_L = _exp_sum_min_gap(dL) if has_bdata else None
    gap_R = _exp_sum_min_gap(dR) if has_bdata else None

    def lift_fn(x, t):
        return np.asarray(lift(x), dtype=float)

    return [
        LayerPlan(sL, terms=left_terms, needs_arc=True, tail_gap=gap_L, closed_form=lift_fn),
        LayerPlan(sR, terms=right_terms, needs_arc=True, tail_gap=gap_R, closed_form=lift_fn),
    ]


def _two_finite_linear_plans(config) -> list[LayerPlan]:
    sL, sR, a, b, TL, TR, bdL, bdR, a1, a3, lift, dL = _two_finite_setup(config)

    def lift_fn(x, t):
        return np.asarray(lift(x), dtype=float)

    return _finite_layer_plans(config, (TL, TR), ((bdL, a1), (bdR, a3)), dL, closed_form=lift_fn)


def solve_two_finite_dirichlet(
    config: ProblemConfig,
    numerics: Numerics | None = None,
    path: str = "linear_solve",
) -> SolutionField:
    """Build the evaluator for the two-finite-layer Dirichlet problem.

    ``path="linear_solve"`` solves the assembled global relations per node,
    as every finite stack does; ``path="transcribed"`` evaluates the paper's
    printed formulas, which ``verify`` keeps as an independent cross-check.
    """
    validate(config)
    if config.geometry != Geometry.TWO_FINITE:
        raise FokasHeatError("solve_two_finite_dirichlet requires two_finite geometry")
    if path == "transcribed":
        plans = _two_finite_transcribed_plans(config)
    elif path == "linear_solve":
        plans = _two_finite_linear_plans(config)
    else:
        raise ValueError(f"unknown path {path!r}")
    return SolutionField(config, plans, numerics, label=f"two_finite/{path}")


# ---------------------------------------------------------------------------
# three finite layers, insulated ends


def _three_finite_plans(config) -> list[LayerPlan]:
    """Layer plans evaluating the derived global-relation solution.

    ``_finite_layer_plans`` with insulated ends: per node, the six global
    relations fix the end values (Va, Vc) and the interface values and
    fluxes (V0, F0) and (Vb, Fb).  Each layer integrates its right edge
    over the lower contour and its left edge over the upper one:

        u_L = inv(u0_L) - (1/2pi) [ int_lower e^{ikx} (F0 + ik sL^2 V0)
                                  + int_upper e^{ik(x+a)} ik sL^2 Va ]
        u_M = inv(u0_M) - (1/2pi) [ int_lower e^{ikM(x-b)} (Fb + ikM sM^2 Vb)
                                  + int_upper e^{ikM x} (F0 + ikM sM^2 V0) ]
        u_R = inv(u0_R) - (1/2pi) [ int_lower e^{ikR(x-c)} ikR sR^2 Vc
                                  + int_upper e^{ikR(x-b)} (Fb + ikR sR^2 Vb) ]

    The last factor e^{-ikR b} grows on the upper contour, so it stays in
    the exponent as an x offset of that piece.
    """
    sL, sM, sR = config.sigmas
    a = -config.layers[0].x_lo
    b = config.layers[1].x_hi
    c = config.layers[2].x_hi
    transforms = tuple(
        transform_of(src, (layer.x_lo, layer.x_hi))
        for src, layer in zip(config.initial_data, config.layers)
    )
    delta = delta_three_finite(sL, sM, sR, a, b, c)
    return _finite_layer_plans(config, transforms, (None, None), delta)


def solve_three_finite(config: ProblemConfig, numerics: Numerics | None = None) -> SolutionField:
    """Build the evaluator for the three-finite-layer insulated problem.

    Evaluates the derived global-relation solution (see
    TRANSCRIPTION_CORRECTIONS["three_finite.formulas"]).
    """
    validate(config)
    if config.geometry != Geometry.THREE_FINITE:
        raise FokasHeatError("solve_three_finite requires three_finite geometry")
    return SolutionField(config, _three_finite_plans(config), numerics, label="three_finite")
