"""Contour-integral evaluation of heat conduction in 1-D composite media.

Builds explicit solution evaluators for four geometries (two semi-infinite
layers, two finite layers with Dirichlet ends, a finite layer between two
semi-infinite ones, three finite layers with insulated ends) and verifies
them against finite-difference, classical-series, and steady-state oracles.
"""

from ._accel import USING_NUMBA
from ._field import Numerics, SolutionField
from .core import (
    EndCondition,
    Geometry,
    LayerSpec,
    ProblemConfig,
    SolutionSample,
    collect_violations,
    mirrored,
    shift_to_canonical,
    three_finite,
    three_infinite,
    two_finite,
    two_semi_infinite,
    validate,
)
from .errors import (
    ConfigValidationError,
    DomainMismatch,
    FokasHeatError,
    NaNInIntegrand,
    NoConvergence,
    ParseError,
    QuadratureOrderTooLow,
    RootBracketFailure,
    SingularNode,
    TimeTooSmall,
    TransformValidityError,
    TruncationTooTight,
    UnknownKey,
    WrongDecaySign,
)
from .solver_finite import solve_three_finite, solve_two_finite_dirichlet, steady_state
from .solver_semi_infinite import solve_three_infinite, solve_two_semi_infinite
from .transforms import (
    BoundaryData,
    ExpPolynomial,
    ExpPolyTerm,
    SampledInterval,
    erf_real,
    halfline_transform,
    interval_transform,
    time_transform_constant,
)

__version__ = "0.1.0"


def solve(config: ProblemConfig, numerics: Numerics | None = None, **kwargs) -> SolutionField:
    """Dispatch a validated configuration to its (single) solver."""
    geo = validate(config).geometry
    if geo == Geometry.TWO_SEMI_INFINITE:
        return solve_two_semi_infinite(config, numerics, **kwargs)
    if geo == Geometry.TWO_FINITE:
        return solve_two_finite_dirichlet(config, numerics, **kwargs)
    if geo == Geometry.THREE_INFINITE:
        return solve_three_infinite(config, numerics=numerics, **kwargs)
    return solve_three_finite(config, numerics=numerics, **kwargs)
