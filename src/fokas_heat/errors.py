"""Exception types shared across the package."""

from __future__ import annotations


class FokasHeatError(Exception):
    """Base class for all package-specific errors."""


class ConfigValidationError(FokasHeatError):
    """A problem configuration violates one or more invariants.

    Carries the full list of violations so callers can report them all at
    once instead of fixing one field at a time.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid problem configuration: {lines}")


class WrongDecaySign(FokasHeatError):
    """Half-line initial datum does not decay toward its infinite end."""


class QuadratureOrderTooLow(FokasHeatError):
    """Interval transform quadrature failed its order-doubling self check."""


class TransformValidityError(FokasHeatError):
    """A transform was evaluated outside its region of validity.

    This always indicates a bug in a solver kernel, never bad user input,
    so it aborts instead of degrading silently.
    """


class TimeTooSmall(FokasHeatError):
    """Contour truncation radius exceeded its cap for the requested time.

    Attributes
    ----------
    min_time : float
        Smallest admissible evaluation time for the offending configuration.
    """

    def __init__(self, message, min_time=None):
        super().__init__(message)
        self.min_time = min_time


class NoConvergence(FokasHeatError):
    """Successive quadrature refinements failed to agree within tolerance.

    Attributes
    ----------
    last_diff : float or None
        Difference between the last two refinements, relative to the
        solution scale the tolerance applies to.
    tolerance : float or None
        The relative tolerance that difference had to meet.
    """

    def __init__(self, message, last_diff=None, tolerance=None):
        if last_diff is not None:
            message = f"{message}: last difference {last_diff:.3g} vs tolerance {tolerance:.3g}"
        super().__init__(message)
        self.last_diff = last_diff
        self.tolerance = tolerance


class NaNInIntegrand(FokasHeatError):
    """An integrand produced NaN at a quadrature node."""


class DomainMismatch(FokasHeatError):
    """Evaluation point lies outside every layer of the configuration."""


class SingularNode(FokasHeatError):
    """|Delta| fell below threshold at a contour node (contour misplaced)."""


class TruncationTooTight(FokasHeatError):
    """Finite-difference truncation boundary interacted with the solution."""


class RootBracketFailure(FokasHeatError):
    """Eigenvalue bracketing scan failed to isolate the expected roots."""


class OracleNotApplicable(FokasHeatError):
    """A reference solver was asked for data outside the family it solves."""


class ParseError(FokasHeatError):
    """Configuration text could not be parsed.

    Attributes
    ----------
    line_no : int or None
        1-based line number of the offending line, when known.
    """

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class UnknownKey(ParseError):
    """Configuration contained a key this tool does not recognize."""
