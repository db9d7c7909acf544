"""Deformed spectral contours and exponentially convergent quadrature.

The solution formulas integrate along the boundary of the region where
Re(k^2) < 0, split into an upper and a lower half.  On that boundary the
Gaussian factor exp(-(sigma k)^2 t) has unit modulus and quadrature cannot
converge, so each half is deformed toward the real axis: two rays at angle
``theta`` off the axis, optionally joined by a half-circle arc of radius r
through +-i r so the path avoids the origin (needed whenever a denominator
function vanishes at k = 0).  Cauchy's theorem makes the results independent
of both theta and r, which the test suite asserts directly.  The arc radius
defaults to R_gauss/3, the largest the Gaussian truncation admits (see
:func:`build_contour`); a given radius is capped there.

Half contours: the data and interface conditions are real, so every
integrand satisfies f(-conj k) = conj f(k) on these contours, which are
symmetric under k -> -conj(k).  The Re k < 0 half only repeats the Re k > 0
half, and for real x

    u(x) = 2 Re sum_{Re k > 0} c(k) e^{ikx},

so only the Re k > 0 half is built, with doubled weights (see
:class:`SpectralContour`).  Complex initial or boundary data would break
the identity; configuration validation rejects it.

Truncation: along a ray at angle theta, |exp(-(sigma k)^2 t)| equals
exp(-(sigma|k|)^2 t cos(2 theta)), so the radius R solves

    (sigma_min R)^2 t cos(2 theta) - x_scale R sin(theta) = ln(1/eps)

with eps = 1e-16; the x_scale term is a safety margin for integrands that
carry exp(i k x) growth.  R grows like 1/sqrt(t): very small times exceed
the configured radius cap and raise TimeTooSmall with the admissible
minimum time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._accel import cached_leggauss as leggauss

from .errors import TimeTooSmall

THETA_DEFAULT = math.pi / 8.0
TRUNCATION_EPS = 1e-16
RADIUS_CAP = 2.0e4


@dataclass(frozen=True)
class _Piece:
    """One parameterized segment: straight ray or circular arc."""

    kind: str  # "ray" | "arc"
    start: complex  # ray: start point; arc: (angle_from, angle_to) packed below
    end: complex
    a_from: float = 0.0
    a_to: float = 0.0
    radius: float = 0.0

    def nodes(self, order: int):
        xg, wg = leggauss(order)
        if self.kind == "ray":
            mid = 0.5 * (self.start + self.end)
            half = 0.5 * (self.end - self.start)
            return mid + half * xg, wg * half
        phi = 0.5 * (self.a_from + self.a_to) + 0.5 * (self.a_to - self.a_from) * xg
        k = self.radius * np.exp(1j * phi)
        w = wg * 0.5 * (self.a_to - self.a_from) * 1j * k
        return k, w


@dataclass(frozen=True)
class SpectralContour:
    """Quadrature nodes on the Re k > 0 half of an oriented contour.

    ``half`` is "upper", "lower", or "real".  The full upper contour runs in
    from infinity at angle pi - theta, (optionally) around the arc through
    i*r, and back out at angle theta -- the same orientation as the real
    line, so integrals of functions analytic in between agree with the
    real-line integral.  The full lower contour is its mirror image (in
    along -theta, out along -(pi - theta)); for it the matching identity
    carries a minus sign relative to the real line.

    Every full contour is symmetric under k -> -conj(k), which maps its
    Re k < 0 half onto the Re k > 0 half with conjugated weights.  For an
    integrand with f(-conj k) = conj f(k) (real data and real interface
    conditions, e^{ikx} at real x) the full integral is therefore
    2 Re sum_{Re k > 0} w f(k), and only that half is stored: the outgoing
    ray and the arc from pi/2 down to theta (upper), the incoming ray and
    the arc from -theta down to -pi/2 (lower), or [0, R] (real), each with
    doubled weights.  Callers take the real part of the weighted sum.
    """

    half: str
    pieces: tuple[_Piece, ...]
    nodes: np.ndarray
    weights: np.ndarray
    truncation_radius: float
    arc_radius: float
    theta: float
    order: int


def _assemble(half, pieces, R, r, theta, order):
    ks, ws = [], []
    for piece in pieces:
        k, w = piece.nodes(order)
        ks.append(k)
        ws.append(w)
    # doubled weights stand in for the mirrored Re k < 0 half
    return SpectralContour(
        half,
        tuple(pieces),
        np.concatenate(ks),
        2.0 * np.concatenate(ws),
        R,
        r,
        theta,
        order,
    )


def truncation_radius(sigma_min, t, theta=THETA_DEFAULT, x_scale=0.0, eps=TRUNCATION_EPS):
    """Radius where the ray integrand envelope drops below ``eps``."""
    if t <= 0:
        raise ValueError("truncation radius requires t > 0")
    A = sigma_min**2 * t * math.cos(2 * theta)
    B = abs(x_scale) * math.sin(theta)
    C = math.log(1.0 / eps)
    return (B + math.sqrt(B * B + 4 * A * C)) / (2 * A)


def _panel_edges(r0, R, panel_width):
    n = max(4, int(math.ceil((R - r0) / panel_width)))
    return list(np.linspace(r0, R, n + 1))


def build_contour(
    half,
    sigma_min,
    t,
    x_scale=0.0,
    avoid_origin=True,
    r=None,
    *,
    theta=THETA_DEFAULT,
    order=16,
    max_radius=RADIUS_CAP,
    feature_scale=None,
    eps=TRUNCATION_EPS,
    min_radius=0.0,
):
    """Build the Re k > 0 half of a truncated, deformed contour.

    Parameters
    ----------
    half : "upper" or "lower"
    sigma_min : float
        Smallest sigma among the kernels integrated on this contour; sets
        the Gaussian truncation radius.
    t : float
        Evaluation time (> 0).
    x_scale : float
        Largest |x + shift| the integrands carry in their exp(i k x) factor;
        controls panel width (oscillation resolution).
    avoid_origin : bool
        Insert the half-circle arc through +-i r.  Required whenever the
        integrand has a denominator vanishing at k = 0; harmless otherwise.
    r : float or None
        Arc radius.  None means R_gauss/3, the largest admissible radius
        (R_gauss is the Gaussian truncation radius); a number is capped
        there.  Results are r-independent by Cauchy's theorem.
    min_radius : float
        Floor on the truncation radius.  Boundary-data kernels decay only
        like 1/k with ray-pair cancellation setting in at a t-independent
        radius, so their plans must force the contour out that far even
        when the Gaussian radius is tiny (large t).
    """
    if half not in ("upper", "lower"):
        raise ValueError("half must be 'upper' or 'lower'")
    # Gaussian truncation: every kernel decays (or is neutral) in its
    # exp(ikx) factor on the contour built for it; x_scale only drives
    # panel sizing below
    R_gauss = truncation_radius(sigma_min, t, theta, 0.0, eps)
    R = max(R_gauss, min(min_radius, max_radius))
    if R > max_radius:
        # admissible t from the x_scale-free truncation rule at R = max_radius
        t_min = math.log(1.0 / eps) / (sigma_min**2 * max_radius**2 * math.cos(2 * theta))
        raise TimeTooSmall(
            f"truncation radius {R:.3g} exceeds cap {max_radius:.3g}; "
            f"smallest admissible t is about {t_min:.3g}",
            min_time=t_min,
        )

    # the arc dips into the region where Re(k^2) < 0 and exp(-(sigma k)^2 t)
    # grows, so its radius must stay a fraction of the *Gaussian* radius
    r_max = R_gauss / 3.0
    if not avoid_origin:
        r_eff = 0.0
    elif r is None:
        r_eff = r_max
    else:
        r_eff = min(r, r_max)

    # panel width limited by oscillation (x_scale), the Gaussian feature
    # width 1/(sigma sqrt t), and an optional caller-supplied feature scale
    osc = max(abs(x_scale), 1e-30)
    w_osc = order * 2.0 * math.pi / (6.0 * osc)
    w_gauss = 1.5 / (sigma_min * math.sqrt(t))
    width = min(w_osc, w_gauss, (R - r_eff) / 4.0)
    if feature_scale is not None:
        width = min(width, feature_scale)

    # Re k > 0 half of the full path.  upper: around the arc from +i r down
    # to angle theta, then out along the ray (the full path runs in at
    # pi - theta and out at theta, the real line's orientation); lower: the
    # mirror image k -> conj(k) traversed backwards (in along the ray at
    # -theta, then around the arc to -i r), so that for integrands analytic
    # and decaying in between, lower integrals equal MINUS the real-line
    # integral while upper ones equal it.
    edges = _panel_edges(r_eff, R, width)
    sign = 1.0 if half == "upper" else -1.0
    e_ray = np.exp(1j * sign * theta)
    pieces = []
    if r_eff > 0:
        n_arc = max(1, math.ceil((math.pi / 2.0 - theta) / 0.8))
        phis = sign * np.linspace(math.pi / 2.0, theta, n_arc + 1)
        for p0, p1 in zip(phis[:-1], phis[1:]):
            pieces.append(_Piece("arc", 0, 0, a_from=p0, a_to=p1, radius=r_eff))
    for lo, hi in zip(edges[:-1], edges[1:]):
        pieces.append(_Piece("ray", lo * e_ray, hi * e_ray))
    if half == "lower":
        pieces = [
            _Piece(p.kind, p.end, p.start, a_from=p.a_to, a_to=p.a_from, radius=p.radius)
            for p in reversed(pieces)
        ]

    return _assemble(half, pieces, R, r_eff, theta, order)


def real_line_contour(
    sigma,
    t,
    x_scale=0.0,
    *,
    order=16,
    max_radius=RADIUS_CAP,
    feature_scale=None,
    eps=TRUNCATION_EPS,
):
    """Quadrature nodes on [0, R], with doubled weights, for real-axis
    Fourier inversion integrals over [-R, R] (the [-R, 0] half mirrors it;
    see :class:`SpectralContour`).

    Truncation uses the same Gaussian rule as the deformed contours (with
    cos(2 theta) = 1 on the axis).
    """
    R = truncation_radius(sigma, t, 0.0, 0.0, eps)
    if R > max_radius:
        t_min = math.log(1.0 / eps) / (sigma**2 * max_radius**2)
        raise TimeTooSmall(
            f"real-line truncation radius {R:.3g} exceeds cap {max_radius:.3g}",
            min_time=t_min,
        )
    osc = max(abs(x_scale), 1e-30)
    w_osc = order * 2.0 * math.pi / (6.0 * osc)
    w_gauss = 1.5 / (sigma * math.sqrt(t))
    width = min(w_osc, w_gauss, R / 2.0)
    if feature_scale is not None:
        width = min(width, feature_scale)
    edges = _panel_edges(0.0, R, width)
    pieces = [_Piece("ray", complex(lo), complex(hi)) for lo, hi in zip(edges[:-1], edges[1:])]
    return _assemble("real", tuple(pieces), R, 0.0, 0.0, order)
