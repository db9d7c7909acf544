"""Shared machinery turning kernel term lists into evaluable solution fields.

Every solution formula in this package has the same shape per layer:

    u(x, t) = closed-form pieces
              + sum over terms of  const * integral_path e^{i k (x + shift)}
                * coef(k) * k^p * source_factor(k, t) / Delta(k) dk

where ``path`` is the real line or one of the deformed half-contours,
``coef`` and ``Delta`` are finite exponential sums, and ``source_factor`` is
either ``e^{-(sigma k)^2 t}`` times a spatial transform of initial data or a
scaled exponential time transform of boundary data.  A layer is therefore
described by a list of :class:`KernelTerm` plus optional closed-form pieces,
and evaluation reduces to one ``phase_sum`` per contour once the nodal
coefficients are assembled.

All exponential factors are combined into a single exponent before
exponentiation: exponential sums and transforms report a ``(bounded value,
offset)`` pair relative to the dominant exponential of their half-plane, so
the assembled exponent has nonpositive real part whenever the kernels decay
on their contour (which the construction guarantees) and nothing overflows.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._accel import phase_sum
from .contours import RADIUS_CAP, THETA_DEFAULT, build_contour, real_line_contour
from .core import ProblemConfig, SolutionSample
from .errors import FokasHeatError, NaNInIntegrand, NoConvergence, SingularNode
from .transforms import BoundaryData, TransformFn

_EXPONENT_GUARD = 60.0
# smallest semi-infinite span: keeps log2 finite when every requested x is 0
# (one-sided interface limits); the panel width there is set by the Gaussian
_SPAN_FLOOR = 2.0**-30

# Chebyshev interpolation of one (layer, t) batch: only batches holding
# _INTERP_POINTS_PER_NODE x per Chebyshev point are interpolated, so the
# direct evaluations it costs (the n + 1 points plus about 2 (n + 1) checked
# x) stay under 3/4 of the batch
_INTERP_POINTS_PER_NODE = 4
# terms lighter than this share of the summed term weights on the interval
# do not set the degree; the margin covers the Bessel-like decay of the
# Chebyshev coefficients of e^{ikx} beyond degree |k| * half-width, and
# makes every degree at least _DEGREE_MARGIN
_TERM_CUTOFF = 1e-16
_DEGREE_MARGIN = 16
# checked x must agree with direct evaluation to this times the tolerance
_INTERP_CHECK = 1e-2
# nodal cache entries one field keeps, (layer, t, span) keys; the oldest
# insertion is evicted first.  8x the most one benchmark op fills (32: 16
# output times in two layers), so no op evicts.
_CACHE_ENTRIES = 256


@dataclass(frozen=True)
class ExpSum:
    """Finite exponential sum  k -> sum_j c_j e^{i q_j k}  with real offsets."""

    terms: tuple[tuple[complex, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple((complex(c), float(q)) for c, q in self.terms if c != 0)
        )

    @staticmethod
    def one() -> "ExpSum":
        return ExpSum(((1.0, 0.0),))

    @property
    def max_abs_q(self) -> float:
        return max((abs(q) for _, q in self.terms), default=0.0)

    def scaled(self, ratio: float) -> "ExpSum":
        return ExpSum(tuple((c, q * ratio) for c, q in self.terms))

    def __mul__(self, other):
        if isinstance(other, ExpSum):
            return ExpSum(
                tuple(
                    (c1 * c2, q1 + q2)
                    for c1, q1 in self.terms
                    for c2, q2 in other.terms
                )
            )
        return ExpSum(tuple((c * other, q) for c, q in self.terms))

    __rmul__ = __mul__

    def eval_scaled(self, k, half):
        """Return (vals, qstar) with  sum = vals * e^{i qstar k}, vals bounded."""
        if not self.terms:
            return np.zeros(np.shape(k), dtype=complex), 0.0
        if half == "lower":
            qstar = max(q for _, q in self.terms)
        elif half == "upper":
            qstar = min(q for _, q in self.terms)
        else:
            qstar = 0.0
        vals = np.zeros(np.shape(k), dtype=complex)
        for c, q in self.terms:
            vals = vals + c * np.exp(1j * (q - qstar) * np.asarray(k))
        return vals, qstar

    def __call__(self, k):
        k = np.asarray(k, dtype=complex)
        out = np.zeros(k.shape, dtype=complex)
        for c, q in self.terms:
            out = out + c * np.exp(1j * q * k)
        return out


@dataclass(frozen=True)
class KernelTerm:
    """One contour (or real-line) integral term of a layer formula."""

    contour: str  # "upper" | "lower" | "real"
    const: complex
    shift: float = 0.0
    coef: Optional[ExpSum] = None
    k_power: int = 0
    kind: str = "initial"  # "initial" | "boundary"
    transform: Optional[TransformFn] = None
    arg_scale: float = 1.0
    delta: Optional[ExpSum] = None
    bdata: Optional[BoundaryData] = None

    def osc_extent(self) -> float:
        ext = abs(self.shift)
        if self.coef is not None:
            ext += self.coef.max_abs_q
        if self.delta is not None:
            ext += self.delta.max_abs_q
        if self.transform is not None:
            ext += abs(self.arg_scale) * getattr(self.transform, "window", 0.0)
        return ext


@dataclass
class LayerPlan:
    """Everything needed to evaluate one layer of the solution."""

    sigma: float
    terms: list[KernelTerm] = field(default_factory=list)
    # closed-form contribution (x_array, t) -> real array
    closed_form: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    # optional nodal solver: (k_nodes, half, t) -> integrand values (no weights)
    solve_fn: Optional[Callable[[np.ndarray, str, float], np.ndarray]] = None
    solve_halves: tuple[str, ...] = ()
    needs_arc: bool = True
    feature_scale: Optional[float] = None
    # extra oscillation extent for solve_fn integrands the terms don't show
    osc_pad: float = 0.0
    # smallest exponent gap of boundary-term kernels: their 1/k tails only
    # pair-cancel beyond ln(1e14)/(sin theta * gap), a t-independent radius
    tail_gap: Optional[float] = None

    def x_scale_for(self, x_span: float) -> float:
        ext = max((t.osc_extent() for t in self.terms), default=0.0)
        return x_span + max(ext, self.osc_pad)

    def contour_halves(self) -> set[str]:
        halves = {t.contour for t in self.terms}
        halves.update(self.solve_halves)
        return halves


def _term_nodal(term: KernelTerm, k, w, sigma, t, half):
    """Weights-included nodal coefficients of one term."""
    vals = np.full(k.shape, term.const, dtype=complex)
    ph = term.shift
    if term.coef is not None:
        cv, cq = term.coef.eval_scaled(k, half)
        vals *= cv
        ph += cq
    if term.delta is not None:
        dv, dq = term.delta.eval_scaled(k, half)
        amax = float(np.max(np.abs(dv)))
        if amax == 0.0 or float(np.min(np.abs(dv))) < 1e-12 * amax:
            raise SingularNode(
                "denominator nearly vanished at a contour node; the contour "
                "passes too close to a spectral zero"
            )
        vals /= dv
        ph -= dq
    if term.k_power:
        vals *= k**term.k_power
    if term.kind == "initial":
        tv, tq = term.transform.eval_scaled(term.arg_scale * k)
        vals *= tv
        ph -= term.arg_scale * tq
        expo = 1j * k * ph - (sigma * k) ** 2 * t
    else:
        vals *= term.bdata.scaled_time_transform((sigma * k) ** 2, t)
        expo = 1j * k * ph
    r = np.real(expo)
    if np.max(r) > _EXPONENT_GUARD:
        raise FokasHeatError(
            "kernel exponent grows on its contour; kernel/contour mismatch"
        )
    out = w * vals * np.exp(expo)
    if np.any(np.isnan(out)):
        raise NaNInIntegrand("NaN while assembling kernel nodal coefficients")
    return out


def _cheb_degree(nodal, lo: float, hi: float) -> Optional[int]:
    """Chebyshev degree (a power of two) that resolves ``nodal`` on [lo, hi].

    Term j contributes at most |c_j| e^{-Im k_j (x + shift)} there; among the
    terms that matter, the largest |k_j| times the half-width sets the degree.
    Returns None when the weights overflow.
    """
    weights = []
    for k, coefs, shift in nodal:
        grow = np.maximum(-k.imag * (lo + shift), -k.imag * (hi + shift))
        with np.errstate(over="ignore"):
            weights.append(np.abs(coefs) * np.exp(grow))
    total = float(sum(np.sum(w) for w in weights))
    if not math.isfinite(total):
        return None
    kmax = 0.0
    for (k, _, _), w in zip(nodal, weights):
        keep = w > _TERM_CUTOFF * total
        if np.any(keep):
            kmax = max(kmax, float(np.max(np.abs(k[keep]))))
    need = kmax * 0.5 * (hi - lo) + _DEGREE_MARGIN
    return 2 ** math.ceil(math.log2(need))


def _cheb_interp(nodes: np.ndarray, fvals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Barycentric interpolant through ``fvals`` at the Chebyshev extrema
    ``nodes`` (second-kind formula; Berrut & Trefethen 2004), evaluated at x."""
    n = nodes.size - 1
    w = (-1.0) ** np.arange(n + 1)
    w[[0, -1]] *= 0.5
    out = np.empty(x.size)
    # chunked so the (nx, n + 1) matrices never exceed ~8 MB
    step = max(1, 2**20 // (n + 1))
    for i in range(0, x.size, step):
        d = np.subtract.outer(x[i : i + step], nodes)
        hit = d == 0.0
        d[hit] = 1.0
        q = w / d
        part = (q @ fvals) / q.sum(axis=1)
        rows, cols = np.nonzero(hit)
        part[rows] = fvals[cols]
        out[i : i + step] = part
    return out


@dataclass
class Numerics:
    """Knobs for contour construction and refinement.

    ``arc_radius`` None means the largest admissible arc, a third of the
    Gaussian truncation radius; a number is capped there.
    """

    theta: float = THETA_DEFAULT
    arc_radius: Optional[float] = None
    avoid_origin: Optional[bool] = None  # None: arc only where the plan needs it
    order: int = 16
    tolerance: float = 1e-10
    max_refine: int = 4
    radius_cap: float = RADIUS_CAP


class SolutionField:
    """Immutable evaluator mapping (x, t) to temperature plus layer tag.

    Nodal data is cached per (layer, evaluation time, span) and refined by
    doubling quadrature orders until probe values stabilize to the
    configured tolerance.  A large batch of x in one layer is interpolated
    from Chebyshev points and checked against direct sums at a subset of
    its x (see ``_eval_batch``); the interpolant is not cached.  Evaluation
    is pure; the only mutation is the nodal cache, which holds at most
    ``_CACHE_ENTRIES`` keys and evicts the oldest insertion first.  Inserts
    and evictions take a lock; concurrent readers at distinct times may at
    worst duplicate a build, and a rebuilt entry is bit-identical.
    """

    def __init__(self, config: ProblemConfig, plans: list[LayerPlan], numerics: Numerics | None = None, label: str = ""):
        self.config = config
        self.plans = plans
        self.numerics = numerics or Numerics()
        self.label = label
        self._cache: dict = {}
        self._cache_lock = threading.Lock()

    # -- contour/nodal assembly ------------------------------------------

    def _probe_points(self, idx: int, span: float) -> np.ndarray:
        layer = self.config.layers[idx]
        lo = layer.x_lo if math.isfinite(layer.x_lo) else -span
        hi = layer.x_hi if math.isfinite(layer.x_hi) else span
        w = hi - lo
        return np.array([lo + 0.11 * w, lo + 0.5 * w, hi - 0.07 * w])

    def _build_nodal(self, idx: int, t: float, span: float, order: int):
        plan = self.plans[idx]
        num = self.numerics
        x_scale = plan.x_scale_for(span)
        contours = {}
        for half in sorted(plan.contour_halves()):
            if half == "real":
                contours[half] = real_line_contour(
                    plan.sigma,
                    t,
                    x_scale,
                    order=order,
                    max_radius=num.radius_cap,
                    feature_scale=plan.feature_scale,
                )
            else:
                avoid = plan.needs_arc if num.avoid_origin is None else num.avoid_origin
                min_radius = 0.0
                if plan.tail_gap is not None:
                    min_radius = math.log(1e14) / (math.sin(num.theta) * plan.tail_gap)
                contours[half] = build_contour(
                    half,
                    plan.sigma,
                    t,
                    x_scale,
                    avoid_origin=avoid,
                    r=num.arc_radius,
                    theta=num.theta,
                    order=order,
                    max_radius=num.radius_cap,
                    feature_scale=plan.feature_scale,
                    min_radius=min_radius,
                )
        nodal = []
        for half, contour in contours.items():
            k, w = contour.nodes, contour.weights
            coefs = np.zeros(k.shape, dtype=complex)
            for term in plan.terms:
                if term.contour == half:
                    coefs += _term_nodal(term, k, w, plan.sigma, t, half)
            if plan.solve_fn is not None and half in plan.solve_halves:
                out = plan.solve_fn(k, half, t)
                if isinstance(out, list):
                    # integrand pieces carrying their own x-offset, kept
                    # separate so exp(ik(x+shift)) is formed in one piece
                    for vals, shift in out:
                        nodal.append((k, w * vals, shift))
                else:
                    coefs += w * out
            nodal.append((k, coefs, 0.0))
        return nodal

    def _nodal(self, idx: int, t: float, span: float):
        key = (idx, float(t), float(span))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        num = self.numerics
        order = num.order
        nodal = self._build_nodal(idx, t, span, order)
        probes = self._probe_points(idx, span)
        val = self._eval_nodal(nodal, probes)
        last_diff = math.inf
        for _ in range(num.max_refine):
            nodal2 = self._build_nodal(idx, t, span, order * 2)
            val2 = self._eval_nodal(nodal2, probes)
            scale = max(float(np.max(np.abs(val2))), self._magnitude(nodal2), 1e-300)
            diff = float(np.max(np.abs(val2 - val)))
            if diff <= num.tolerance * scale:
                nodal = nodal2
                break
            last_diff = diff / scale
            order *= 2
            nodal, val = nodal2, val2
        else:
            raise NoConvergence(
                f"nodal refinement for layer {idx} at t={t} did not stabilize",
                last_diff=last_diff,
                tolerance=num.tolerance,
            )
        with self._cache_lock:
            self._cache[key] = nodal
            while len(self._cache) > _CACHE_ENTRIES:
                del self._cache[next(iter(self._cache))]
        return nodal

    @staticmethod
    def _magnitude(nodal) -> float:
        m = 0.0
        for _, coefs, _shift in nodal:
            m = max(m, 1e-3 * float(np.sum(np.abs(coefs))))
        return m

    @staticmethod
    def _eval_nodal(nodal, x):
        x = np.asarray(x, dtype=float)
        acc = np.zeros(x.shape, dtype=complex)
        for k, coefs, shift in nodal:
            acc += phase_sum(x + shift if shift else x, k, coefs)
        return np.real(acc)

    def _eval_batch(self, nodal, x: np.ndarray) -> np.ndarray:
        """``_eval_nodal`` at a batch of x in one layer, by Chebyshev
        interpolation when the batch is large enough to repay it and the
        interpolant agrees with direct evaluation at a strided subset of x."""
        # no degree is below _DEGREE_MARGIN, so smaller batches (probes,
        # derivative stencils) skip even the degree estimate
        if x.size < _INTERP_POINTS_PER_NODE * (_DEGREE_MARGIN + 1):
            return self._eval_nodal(nodal, x)
        lo, hi = float(np.min(x)), float(np.max(x))
        n = _cheb_degree(nodal, lo, hi) if hi > lo else None
        if n is None or _INTERP_POINTS_PER_NODE * (n + 1) > x.size:
            return self._eval_nodal(nodal, x)
        nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(np.pi * np.arange(n + 1) / n)
        fvals = self._eval_nodal(nodal, nodes)
        stride = x.size // (2 * (n + 1))
        direct = self._eval_nodal(nodal, x[::stride])
        out = _cheb_interp(nodes, fvals, x)
        scale = max(float(np.max(np.abs(fvals))), float(np.max(np.abs(direct))), self._magnitude(nodal))
        if float(np.max(np.abs(out[::stride] - direct))) <= _INTERP_CHECK * self.numerics.tolerance * scale:
            return out
        return self._eval_nodal(nodal, x)

    # -- public evaluation -------------------------------------------------

    def _span_for(self, idx: int, xs: np.ndarray) -> float:
        """Largest |x| the layer's contours resolve: a finite layer's extent,
        or for a semi-infinite layer the smallest power of two >= max|xs|."""
        layer = self.config.layers[idx]
        if math.isfinite(layer.x_lo) and math.isfinite(layer.x_hi):
            return max(abs(layer.x_lo), abs(layer.x_hi))
        need = max(_SPAN_FLOOR, float(np.max(np.abs(xs))) if xs.size else 0.0)
        return float(2.0 ** math.ceil(math.log2(need)))

    def values(self, x, t: float) -> np.ndarray:
        """Temperatures at array ``x`` and one time ``t`` (> 0)."""
        if t <= 0:
            raise ValueError("evaluation requires t > 0")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(x.shape, dtype=float)
        idxs = self.config.layer_indices(x)
        for idx in np.unique(idxs):
            sel = idxs == idx
            xs = x[sel]
            plan = self.plans[idx]
            span = self._span_for(idx, xs)
            nodal = self._nodal(idx, t, span)
            vals = self._eval_batch(nodal, xs)
            if plan.closed_form is not None:
                vals = vals + plan.closed_form(xs, t)
            out[sel] = vals
        return out

    def value(self, x: float, t: float) -> float:
        return float(self.values(np.array([x]), t)[0])

    def sample(self, x: float, t: float) -> SolutionSample:
        idx = self.config.layer_index(x)
        return SolutionSample(x, t, self.value(x, t), idx)

    def values_in_layer(self, idx: int, x, t: float) -> np.ndarray:
        """Evaluate layer ``idx``'s formula at x (no layer lookup).

        Useful for one-sided interface limits where the point belongs to the
        closure of two layers.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        plan = self.plans[idx]
        span = self._span_for(idx, x)
        nodal = self._nodal(idx, t, span)
        vals = self._eval_batch(nodal, x)
        if plan.closed_form is not None:
            vals = vals + plan.closed_form(x, t)
        return vals

    def derivative(self, x: float, t: float, *, layer: int | None = None, h: float | None = None) -> float:
        """d u / d x by a one-sided 4th-order difference within one layer.

        The step defaults to a small fraction of the diffusion width so the
        stencil stays inside the layer and above quadrature noise.
        """
        idx = self.config.layer_index(x) if layer is None else layer
        lay = self.config.layers[idx]
        if h is None:
            width = lay.width if math.isfinite(lay.width) else float("inf")
            h = 0.02 * min(2.0 * lay.sigma * math.sqrt(t), width / 5.0)
        room_r = (lay.x_hi - x) if math.isfinite(lay.x_hi) else math.inf
        room_l = (x - lay.x_lo) if math.isfinite(lay.x_lo) else math.inf
        if room_r >= 4 * h:
            pts = x + h * np.arange(5.0)
            co = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * h)
        elif room_l >= 4 * h:
            pts = x - h * np.arange(5.0)
            co = -np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * h)
        else:
            pts = x + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
            co = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
        vals = self.values_in_layer(idx, pts, t)
        return float(co @ vals)

    def time_derivative(self, x: float, t: float, *, rel_h: float = 0.02) -> float:
        ht = rel_h * t
        ts = t + ht * np.array([-2.0, -1.0, 1.0, 2.0])
        vals = [self.value(x, ti) for ti in ts]
        return float((vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12.0 * ht))
