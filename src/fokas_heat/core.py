"""Domain types shared by every solver, plus configuration validation.

Coordinates are canonical: the two-layer problems put their interface at
x = 0, the three-layer infinite problem puts its interfaces at -a and +a,
and the three-layer finite problem runs from -a through interfaces at 0 and
b to the right end c.  :func:`shift_to_canonical` maps arbitrary abutting
extents onto these coordinates; the solution formulas hard-code the offsets
in their exponents, so nothing else is accepted downstream.

Temperatures are dimensionless reals; no unit system is attached.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigValidationError, DomainMismatch
from .transforms import BoundaryData, ExpPolynomial, SampledInterval


class Geometry(str, Enum):
    TWO_SEMI_INFINITE = "two_semi_infinite"
    TWO_FINITE = "two_finite"
    THREE_INFINITE = "three_infinite"
    THREE_FINITE = "three_finite"


@dataclass(frozen=True)
class LayerSpec:
    """One homogeneous layer: sigma = sqrt(diffusivity) and a spatial extent."""

    sigma: float
    x_lo: float
    x_hi: float

    @property
    def width(self) -> float:
        return self.x_hi - self.x_lo


@dataclass(frozen=True)
class EndCondition:
    """Boundary operator alpha_u * u + alpha_ux * u_x = data(t) at a finite end."""

    alpha_u: float
    alpha_ux: float
    data: BoundaryData

    @staticmethod
    def dirichlet(value: float | BoundaryData) -> "EndCondition":
        data = value if isinstance(value, BoundaryData) else BoundaryData.constant(value)
        return EndCondition(1.0, 0.0, data)

    @staticmethod
    def neumann_zero() -> "EndCondition":
        return EndCondition(0.0, 1.0, BoundaryData(()))


@dataclass(frozen=True)
class ProblemConfig:
    """Full problem statement for one of the four supported geometries.

    ``initial_data`` holds one transform source per layer (None means zero).
    For the two-semi-infinite geometry the sources describe the deviation
    u0 - gamma from the far-field temperature of their layer, so that they
    are integrable; for all other geometries they are u0 itself.
    """

    geometry: Geometry
    layers: tuple[LayerSpec, ...]
    initial_data: tuple[object, ...]
    far_field: Optional[tuple[float, float]] = None
    end_left: Optional[EndCondition] = None
    end_right: Optional[EndCondition] = None

    @property
    def sigmas(self) -> tuple[float, ...]:
        return tuple(layer.sigma for layer in self.layers)

    @property
    def x_min(self) -> float:
        return self.layers[0].x_lo

    @property
    def x_max(self) -> float:
        return self.layers[-1].x_hi

    @cached_property
    def _right_edges(self) -> tuple[float, ...]:
        return tuple(layer.x_hi for layer in self.layers)

    def layer_indices(self, xs) -> np.ndarray:
        """Index of the layer containing each x (ties go to the left layer).

        Raises DomainMismatch if any x (NaN and +-inf included) lies outside
        the domain.
        """
        xs = np.asarray(xs, dtype=float)
        idx = np.searchsorted(self._right_edges, xs, side="left")
        inside = (idx < len(self.layers)) & (xs >= self.x_min) & np.isfinite(xs)
        if not np.all(inside):
            x = xs[~inside].flat[0]
            raise DomainMismatch(f"x={x} lies outside [{self.x_min}, {self.x_max}]")
        return idx

    def layer_index(self, x: float) -> int:
        """Index of the layer containing x, by the same rule as
        :meth:`layer_indices` (bisect_left is searchsorted side="left");
        a scalar path because per-point callers pay ~8 us for the array one."""
        edges = self._right_edges
        idx = bisect_left(edges, x)
        if idx == len(edges) or not x >= self.x_min or not math.isfinite(x):
            raise DomainMismatch(f"x={x} lies outside [{self.x_min}, {self.x_max}]")
        return idx


@dataclass(frozen=True)
class SolutionSample:
    """One evaluated point: temperature u at (x, t) in layer ``layer_index``."""

    x: float
    t: float
    u: float
    layer_index: int


@dataclass(frozen=True)
class Violation:
    code: str
    field: str
    message: str

    def __str__(self):
        return f"{self.code}({self.field}): {self.message}"


# the contours hold only their Re k > 0 half, which complex data would break
_REAL_DATA_NOTE = "coefficients and rates must be real (solutions use the k -> -conj(k) symmetry)"


def _is_real(value) -> bool:
    return complex(value).imag == 0.0


def collect_violations(config: ProblemConfig) -> list[Violation]:
    """All invariant violations of ``config`` (empty list when valid)."""
    v: list[Violation] = []
    n_expected = 2 if config.geometry in (Geometry.TWO_SEMI_INFINITE, Geometry.TWO_FINITE) else 3
    if len(config.layers) != n_expected:
        v.append(
            Violation(
                "WrongLayerCount",
                "layers",
                f"{config.geometry.value} takes {n_expected} layers, got {len(config.layers)}",
            )
        )
        return v

    for i, layer in enumerate(config.layers):
        if not (layer.sigma > 0) or not math.isfinite(layer.sigma):
            v.append(Violation("NonPositiveSigma", f"layers[{i}].sigma", f"sigma={layer.sigma}"))
        if math.isfinite(layer.x_lo) and math.isfinite(layer.x_hi) and layer.width <= 0:
            v.append(
                Violation(
                    "EmptyExtent", f"layers[{i}]", f"extent ({layer.x_lo}, {layer.x_hi}) has no interior"
                )
            )
        if layer.x_lo >= layer.x_hi:
            if not (math.isfinite(layer.x_lo) and math.isfinite(layer.x_hi)):
                v.append(Violation("EmptyExtent", f"layers[{i}]", "reversed infinite extent"))

    for i in range(len(config.layers) - 1):
        hi, lo = config.layers[i].x_hi, config.layers[i + 1].x_lo
        if not (math.isfinite(hi) and math.isfinite(lo)) or abs(hi - lo) > 1e-12 * max(1.0, abs(hi)):
            v.append(
                Violation(
                    "NonAbuttingLayers",
                    f"layers[{i}]/layers[{i + 1}]",
                    f"extents end at {hi} and start at {lo}",
                )
            )

    if len(config.initial_data) != len(config.layers):
        v.append(
            Violation(
                "InitialDataCount",
                "initial_data",
                f"need one source (or None) per layer, got {len(config.initial_data)}",
            )
        )

    geo = config.geometry
    if geo == Geometry.TWO_SEMI_INFINITE:
        if not (math.isinf(config.layers[0].x_lo) and math.isinf(config.layers[-1].x_hi)):
            v.append(Violation("BadExtent", "layers", "outer extents must be half-infinite"))
        elif abs(config.layers[0].x_hi) > 0:
            v.append(Violation("NonCanonicalCoordinates", "layers", "interface must sit at x=0"))
        if config.far_field is None:
            v.append(Violation("MissingFarField", "far_field", "two_semi_infinite needs (gamma_L, gamma_R)"))
        if config.end_left is not None or config.end_right is not None:
            v.append(Violation("UnsupportedBoundaryOperator", "end_*", "no finite ends in this geometry"))
    elif geo == Geometry.THREE_INFINITE:
        if not (math.isinf(config.layers[0].x_lo) and math.isinf(config.layers[-1].x_hi)):
            v.append(Violation("BadExtent", "layers", "outer extents must be half-infinite"))
        else:
            a1, a2 = config.layers[0].x_hi, config.layers[1].x_hi
            if abs(a1 + a2) > 1e-12 * max(1.0, abs(a2)) or a2 <= 0:
                v.append(
                    Violation("NonCanonicalCoordinates", "layers", "interfaces must sit at -a and +a")
                )
        if config.far_field is not None and any(g != 0 for g in config.far_field):
            v.append(
                Violation("UnsupportedFarField", "far_field", "three_infinite requires zero asymptotic values")
            )
        if config.end_left is not None or config.end_right is not None:
            v.append(Violation("UnsupportedBoundaryOperator", "end_*", "no finite ends in this geometry"))
    elif geo == Geometry.TWO_FINITE:
        if not all(math.isfinite(layer.x_lo) and math.isfinite(layer.x_hi) for layer in config.layers):
            v.append(Violation("BadExtent", "layers", "two_finite extents must be finite"))
        elif abs(config.layers[0].x_hi) > 0:
            v.append(Violation("NonCanonicalCoordinates", "layers", "interface must sit at x=0"))
        for name, end in (("end_left", config.end_left), ("end_right", config.end_right)):
            if end is None:
                v.append(Violation("MissingEndCondition", name, "two_finite needs both end conditions"))
            elif end.alpha_ux != 0 or end.alpha_u == 0:
                v.append(
                    Violation(
                        "UnsupportedBoundaryOperator",
                        name,
                        "only Dirichlet ends (alpha_ux = 0, alpha_u != 0) are supported",
                    )
                )
    elif geo == Geometry.THREE_FINITE:
        if not all(math.isfinite(layer.x_lo) and math.isfinite(layer.x_hi) for layer in config.layers):
            v.append(Violation("BadExtent", "layers", "three_finite extents must be finite"))
        elif abs(config.layers[0].x_hi) > 0:
            v.append(Violation("NonCanonicalCoordinates", "layers", "first interface must sit at x=0"))
        for name, end in (("end_left", config.end_left), ("end_right", config.end_right)):
            if end is None:
                v.append(Violation("MissingEndCondition", name, "three_finite needs both end conditions"))
            elif end.alpha_u != 0 or end.alpha_ux == 0 or not end.data.is_zero:
                v.append(
                    Violation(
                        "UnsupportedBoundaryOperator",
                        name,
                        "only homogeneous Neumann ends (alpha_u = 0, zero data) are supported",
                    )
                )

    for i, src in enumerate(config.initial_data):
        if src is None:
            continue
        layer = config.layers[i] if i < len(config.layers) else None
        if layer is None:
            continue
        if isinstance(src, SampledInterval) and (math.isinf(layer.x_lo) or math.isinf(layer.x_hi)):
            v.append(
                Violation(
                    "UnsupportedInitialData",
                    f"initial_data[{i}]",
                    "sampled profiles are allowed on finite extents only",
                )
            )
        if isinstance(src, ExpPolynomial):
            if math.isinf(layer.x_lo) and src.side != "left":
                v.append(Violation("WrongDecaySign", f"initial_data[{i}]", "left layer needs left-sided data"))
            if math.isinf(layer.x_hi) and src.side != "right":
                v.append(Violation("WrongDecaySign", f"initial_data[{i}]", "right layer needs right-sided data"))
            if not all(_is_real(term.coef) and _is_real(term.rate) for term in src.terms):
                v.append(Violation("NonRealData", f"initial_data[{i}]", _REAL_DATA_NOTE))
    for name, end in (("end_left", config.end_left), ("end_right", config.end_right)):
        if end is not None and not all(_is_real(val) and _is_real(rate) for val, _, rate in end.data.terms):
            v.append(Violation("NonRealData", f"{name}.data", _REAL_DATA_NOTE))
    return v


def validate(config: ProblemConfig) -> ProblemConfig:
    """Return ``config`` unchanged if every invariant holds, else raise.

    Raises :class:`ConfigValidationError` carrying the full violation list.
    Idempotent by construction: a validated config validates again.
    """
    violations = collect_violations(config)
    if violations:
        raise ConfigValidationError(violations)
    return config


def shift_to_canonical(layers: list[LayerSpec]) -> tuple[list[LayerSpec], float]:
    """Shift abutting layers so the interfaces land on the canonical abscissae.

    Returns the shifted layers and the offset that was subtracted from every
    coordinate (evaluate the returned solution at x - offset to query a point
    given in the original coordinates).
    """
    n = len(layers)
    if n == 2:
        offset = layers[0].x_hi
    elif n == 3 and math.isinf(layers[0].x_lo):
        mid = layers[1]
        offset = 0.5 * (mid.x_lo + mid.x_hi)
    elif n == 3:
        offset = layers[0].x_hi
    else:
        raise ValueError("expected 2 or 3 layers")
    shifted = [replace(layer, x_lo=layer.x_lo - offset, x_hi=layer.x_hi - offset) for layer in layers]
    return shifted, offset


# ---------------------------------------------------------------------------
# constructors


def two_semi_infinite(
    sigma_left: float,
    sigma_right: float,
    *,
    gamma_left: float = 0.0,
    gamma_right: float = 0.0,
    left_initial=None,
    right_initial=None,
) -> ProblemConfig:
    """Two semi-infinite layers meeting at x = 0.

    ``left_initial`` / ``right_initial`` describe u0 - gamma of their layer
    (the decaying deviation from the far-field value), as ExpPolynomial
    sources.
    """
    layers = (
        LayerSpec(sigma_left, -math.inf, 0.0),
        LayerSpec(sigma_right, 0.0, math.inf),
    )
    return validate(
        ProblemConfig(
            Geometry.TWO_SEMI_INFINITE,
            layers,
            (left_initial, right_initial),
            far_field=(gamma_left, gamma_right),
        )
    )


def two_finite(
    sigma_left: float,
    sigma_right: float,
    a: float,
    b: float,
    *,
    left_value: float | BoundaryData = 0.0,
    right_value: float | BoundaryData = 0.0,
    left_initial=None,
    right_initial=None,
) -> ProblemConfig:
    """Two finite layers (-a, 0) and (0, b) with Dirichlet end temperatures."""
    layers = (LayerSpec(sigma_left, -a, 0.0), LayerSpec(sigma_right, 0.0, b))
    return validate(
        ProblemConfig(
            Geometry.TWO_FINITE,
            layers,
            (left_initial, right_initial),
            end_left=EndCondition.dirichlet(left_value),
            end_right=EndCondition.dirichlet(right_value),
        )
    )


def three_infinite(
    sigma_left: float,
    sigma_middle: float,
    sigma_right: float,
    a: float,
    *,
    left_initial=None,
    middle_initial=None,
    right_initial=None,
) -> ProblemConfig:
    """A finite layer (-a, a) between two semi-infinite layers, zero at infinity.

    The middle layer occupies exactly (-a, a): the interface conditions and
    the solution formulas are built on that symmetric extent (statements of
    this problem sometimes label the right interface with a second symbol,
    but every condition pins it at +a).
    """
    layers = (
        LayerSpec(sigma_left, -math.inf, -a),
        LayerSpec(sigma_middle, -a, a),
        LayerSpec(sigma_right, a, math.inf),
    )
    return validate(
        ProblemConfig(
            Geometry.THREE_INFINITE,
            layers,
            (left_initial, middle_initial, right_initial),
            far_field=(0.0, 0.0),
        )
    )


def three_finite(
    sigma_left: float,
    sigma_middle: float,
    sigma_right: float,
    a: float,
    b: float,
    c: float,
    *,
    left_initial=None,
    middle_initial=None,
    right_initial=None,
) -> ProblemConfig:
    """Three finite layers (-a, 0), (0, b), (b, c) with insulated ends."""
    layers = (
        LayerSpec(sigma_left, -a, 0.0),
        LayerSpec(sigma_middle, 0.0, b),
        LayerSpec(sigma_right, b, c),
    )
    return validate(
        ProblemConfig(
            Geometry.THREE_FINITE,
            layers,
            (left_initial, middle_initial, right_initial),
            end_left=EndCondition.neumann_zero(),
            end_right=EndCondition.neumann_zero(),
        )
    )


def _reflect_source(src, about: float):
    if src is None:
        return None
    if isinstance(src, ExpPolynomial):
        if about != 0.0:
            refl = src.reflected()
            return ExpPolynomial(refl.terms, side=refl.side, endpoint=about - src.endpoint)
        return src.reflected()
    if isinstance(src, SampledInterval):
        return src.reflected(about=about)
    if callable(src):
        return lambda y, _s=src, _c=about: _s(_c - np.asarray(y))
    raise TypeError(f"cannot reflect initial data of type {type(src).__name__}")


def mirrored(config: ProblemConfig) -> ProblemConfig:
    """The spatially reflected problem, back in canonical coordinates.

    Two-layer and three-infinite geometries reflect about x = 0; the
    three-finite geometry reflects about the midpoint of its middle layer so
    the first interface stays at 0.  Solutions satisfy
    ``u_mirrored(x) = u(center - x)`` with center = 0 or b respectively.
    """
    geo = config.geometry
    if geo == Geometry.TWO_SEMI_INFINITE:
        return two_semi_infinite(
            config.layers[1].sigma,
            config.layers[0].sigma,
            gamma_left=config.far_field[1],
            gamma_right=config.far_field[0],
            left_initial=_reflect_source(config.initial_data[1], 0.0),
            right_initial=_reflect_source(config.initial_data[0], 0.0),
        )
    if geo == Geometry.TWO_FINITE:
        a, b = -config.layers[0].x_lo, config.layers[1].x_hi
        return two_finite(
            config.layers[1].sigma,
            config.layers[0].sigma,
            b,
            a,
            left_value=config.end_right.data,
            right_value=config.end_left.data,
            left_initial=_reflect_source(config.initial_data[1], 0.0),
            right_initial=_reflect_source(config.initial_data[0], 0.0),
        )
    if geo == Geometry.THREE_INFINITE:
        a = config.layers[1].x_hi
        return three_infinite(
            config.layers[2].sigma,
            config.layers[1].sigma,
            config.layers[0].sigma,
            a,
            left_initial=_reflect_source(config.initial_data[2], 0.0),
            middle_initial=_reflect_source(config.initial_data[1], 0.0),
            right_initial=_reflect_source(config.initial_data[0], 0.0),
        )
    if geo == Geometry.THREE_FINITE:
        a = -config.layers[0].x_lo
        b = config.layers[1].x_hi
        c = config.layers[2].x_hi
        return three_finite(
            config.layers[2].sigma,
            config.layers[1].sigma,
            config.layers[0].sigma,
            c - b,
            b,
            b + a,
            left_initial=_reflect_source(config.initial_data[2], b),
            middle_initial=_reflect_source(config.initial_data[1], b),
            right_initial=_reflect_source(config.initial_data[0], b),
        )
    raise ValueError(f"unknown geometry {geo}")
