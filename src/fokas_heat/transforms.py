"""Spatial transforms of initial data and time transforms of boundary data.

Initial data enters the solution formulas only through its Fourier-type
transform evaluated at complex wavenumbers, and boundary data only through
exponential time integrals.  Two initial-data representations are supported:

* :class:`ExpPolynomial` -- finite sums ``c x^m exp(rate x)`` on a half line
  (possibly truncated at an interior endpoint).  Transforms are closed form,
  which is mandatory on semi-infinite layers where numerical quadrature at
  complex wavenumbers is conditionally convergent.
* :class:`SampledInterval` -- an arbitrary callable profile on a finite
  interval, transformed by fixed-order Gauss-Legendre quadrature.  The
  resulting transform is entire in the wavenumber.

Every transform is wrapped in a :class:`TransformFn` carrying its validity
region; evaluation outside the region raises, because the solver kernels are
constructed never to leave it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._accel import cached_leggauss as leggauss
from .errors import (
    QuadratureOrderTooLow,
    TransformValidityError,
    WrongDecaySign,
)

ENTIRE = "entire"
UPPER = "upper"  # closed upper half-plane Im k >= 0
LOWER = "lower"  # closed lower half-plane Im k <= 0

_VALIDITY_TOL = 1e-9


@dataclass(frozen=True)
class ExpPolyTerm:
    """One term ``coef * x**power * exp(rate * x)``."""

    coef: complex
    power: int = 0
    rate: complex = 0.0

    def __post_init__(self):
        if self.power < 0 or int(self.power) != self.power:
            raise ValueError(f"power must be a nonnegative integer, got {self.power}")


@dataclass(frozen=True)
class ExpPolynomial:
    """Exponential-polynomial profile on a half line.

    Parameters
    ----------
    terms : sequence of ExpPolyTerm
    side : "left" or "right"
        "left" means the support is ``(-inf, endpoint]`` and every rate must
        have positive real part; "right" means ``[endpoint, inf)`` with
        negative real parts.  Either way the profile is integrable.
    endpoint : float
        Finite end of the support.  Defaults to 0, the interface abscissa.
    """

    terms: tuple[ExpPolyTerm, ...]
    side: str = "left"
    endpoint: float = 0.0

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        object.__setattr__(self, "terms", tuple(self.terms))
        for term in self.terms:
            re = complex(term.rate).real
            if self.side == "left" and re <= 0:
                raise WrongDecaySign(
                    f"term with rate {term.rate} does not decay toward -inf"
                )
            if self.side == "right" and re >= 0:
                raise WrongDecaySign(
                    f"term with rate {term.rate} does not decay toward +inf"
                )

    def __call__(self, x):
        """Evaluate the profile, zero outside its support."""
        x = np.asarray(x, dtype=float)
        if self.side == "left":
            mask = x <= self.endpoint
        else:
            mask = x >= self.endpoint
        out = np.zeros(x.shape, dtype=complex)
        for term in self.terms:
            out += np.where(mask, term.coef * x**term.power * np.exp(term.rate * x), 0.0)
        if np.all(np.abs(out.imag) < 1e-300):
            return out.real
        return out

    def reflected(self) -> "ExpPolynomial":
        """Profile of x -> self(-x); swaps the support side."""
        terms = tuple(
            ExpPolyTerm(t.coef * (-1) ** t.power, t.power, -t.rate) for t in self.terms
        )
        side = "right" if self.side == "left" else "left"
        return ExpPolynomial(terms, side=side, endpoint=-self.endpoint)

    def decay_extent(self, floor: float = 1e-16) -> float:
        """Distance past the endpoint after which |profile| < floor * scale."""
        dist = 0.0
        for term in self.terms:
            re = abs(complex(term.rate).real)
            dist = max(dist, (-math.log(floor) + 5.0 * (term.power + 1)) / re)
        return dist


@dataclass(frozen=True)
class SampledInterval:
    """Callable initial profile on a finite interval, transformed by quadrature.

    The Gauss-Legendre order doubles until two successive orders agree to
    ``check_tol`` at the probe wavenumbers supplied when the transform is
    built; failure raises :class:`QuadratureOrderTooLow`.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    x_lo: float
    x_hi: float
    order: int = 64
    check_tol: float = 1e-12

    def __post_init__(self):
        if not (np.isfinite(self.x_lo) and np.isfinite(self.x_hi)):
            raise ValueError("SampledInterval requires a finite interval")
        if self.x_hi <= self.x_lo:
            raise ValueError("empty interval")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.x_lo) & (x <= self.x_hi)
        vals = np.zeros(x.shape, dtype=float)
        if np.any(inside):
            vals[inside] = np.real(self.profile(x[inside]))
        return vals

    def reflected(self, about: float = 0.0) -> "SampledInterval":
        """Profile of x -> self(about - x) on the mirrored interval."""
        prof = self.profile
        return SampledInterval(
            lambda y, _p=prof, _c=about: _p(_c - np.asarray(y)),
            about - self.x_hi,
            about - self.x_lo,
            order=self.order,
            check_tol=self.check_tol,
        )


@dataclass
class TransformFn:
    """Evaluable transform with an explicit region of validity.

    ``eval_scaled`` returns ``(vals, qshift)`` with the convention

        transform(q) = vals * exp(-i * q * qshift)

    where ``vals`` stays bounded on the half-plane the nodes live in.  That
    lets kernel assembly combine all exponential factors into one exponent
    and avoid overflow at large |Im q|.
    """

    validity: str
    _scaled: Callable[[np.ndarray], tuple[np.ndarray, float]]
    label: str = ""
    window: float = 0.0  # spatial extent driving e^{-ikx}-type oscillation

    def _check(self, q):
        if self.validity == ENTIRE:
            return
        im = np.imag(q)
        tol = _VALIDITY_TOL * (1.0 + np.abs(q))
        if self.validity == UPPER:
            bad = im < -tol
        else:
            bad = im > tol
        if np.any(bad):
            raise TransformValidityError(
                f"transform {self.label or '<anon>'} evaluated outside its "
                f"{self.validity} half-plane of validity"
            )

    def eval_scaled(self, q):
        q = np.atleast_1d(np.asarray(q, dtype=complex))
        self._check(q)
        return self._scaled(q)

    def __call__(self, q):
        q = np.asarray(q, dtype=complex)
        scalar = q.ndim == 0
        vals, shift = self.eval_scaled(np.atleast_1d(q))
        out = vals * np.exp(-1j * np.atleast_1d(q) * shift)
        return out[0] if scalar else out


def _halfline_scaled(src: ExpPolynomial):
    """Closed-form transform of a half-line exp-polynomial.

    For support (-inf, x0]:  integral of x^m e^{(rate - i q) x}
      = e^{(rate - i q) x0} * sum_{j=0}^{m} (-1)^j m!/(m-j)! x0^{m-j} / beta^{j+1},
    beta = rate - i q.  The factor e^{-i q x0} is reported as the shift.
    For support [x0, inf) the same sum enters with an overall minus sign.
    """
    sign = 1.0 if src.side == "left" else -1.0
    x0 = src.endpoint

    def scaled(q):
        out = np.zeros(q.shape, dtype=complex)
        for term in src.terms:
            beta = term.rate - 1j * q
            m = term.power
            acc = np.zeros(q.shape, dtype=complex)
            fac = 1.0  # m!/(m-j)!
            for j in range(m + 1):
                acc += ((-1) ** j) * fac * x0 ** (m - j) / beta ** (j + 1)
                fac *= m - j
            out += term.coef * np.exp(term.rate * x0) * acc
        return sign * out, x0

    return scaled


def halfline_transform(src: ExpPolynomial, side: str | None = None) -> TransformFn:
    """Closed-form spatial transform ``int e^{-i k x} u0(x) dx`` of half-line data.

    Left-side data yields a transform valid on the closed upper half-plane,
    right-side data on the closed lower half-plane (extended by analytic
    continuation wherever the closed form is finite; the conservative region
    is what gets enforced).
    """
    if side is not None and side != src.side:
        raise WrongDecaySign(f"source is {src.side}-sided, requested {side}")
    validity = UPPER if src.side == "left" else LOWER
    return TransformFn(
        validity,
        _halfline_scaled(src),
        label=f"{src.side}-halfline",
        window=abs(src.endpoint),
    )


def interval_transform(src: SampledInterval, probe_k: Sequence[complex] | None = None) -> TransformFn:
    """Entire transform of a finite-interval profile via Gauss-Legendre nodes.

    The order doubles until two successive orders agree to ``src.check_tol``
    (relative) at the probe wavenumbers; raises QuadratureOrderTooLow when a
    pair whose higher order exceeds 1024 still disagrees (from the default
    order 64, after comparing orders 1024 and 2048).
    """
    if probe_k is None:
        # default probes: moderate real and slightly complex wavenumbers
        width = src.x_hi - src.x_lo
        probe_k = np.array([0.0, 3.1 / width, 11.3 / width * (1 + 0.3j)], dtype=complex)
    probe_k = np.asarray(probe_k, dtype=complex)

    def build(order):
        xg, wg = leggauss(order)
        mid = 0.5 * (src.x_lo + src.x_hi)
        half = 0.5 * (src.x_hi - src.x_lo)
        y = mid + half * xg
        wu = wg * half * np.real(src.profile(y))
        return y, wu

    order = src.order
    y, wu = build(order)
    while True:
        y2, wu2 = build(2 * order)
        ref = _interval_eval(probe_k, y2, wu2, 0.0)
        cur = _interval_eval(probe_k, y, wu, 0.0)
        scale = np.max(np.abs(ref)) + 1e-300
        if np.max(np.abs(ref - cur)) <= src.check_tol * scale:
            break
        order *= 2
        y, wu = y2, wu2
        if order > 1024:
            raise QuadratureOrderTooLow(
                f"interval transform on [{src.x_lo}, {src.x_hi}] did not "
                f"converge by order {order}"
            )

    x_lo, x_hi = src.x_lo, src.x_hi

    def scaled(q):
        # |e^{-iqy}| = e^{Im(q) y}: dominant endpoint is x_hi on the upper
        # half-plane and x_lo on the lower one
        im = np.imag(q)
        if np.all(im >= -_VALIDITY_TOL * (1 + np.abs(q))) and np.any(im > 0):
            ystar = x_hi
        elif np.all(im <= _VALIDITY_TOL * (1 + np.abs(q))) and np.any(im < 0):
            ystar = x_lo
        else:
            ystar = 0.0
        return _interval_eval(q, y, wu, ystar), ystar

    return TransformFn(
        ENTIRE, scaled, label="interval", window=max(abs(x_lo), abs(x_hi))
    )


def _interval_eval(q, y, wu, ystar):
    # sum_i wu_i exp(-i q (y_i - ystar)); |exponent| <= 0 on the proper side
    return np.exp(-1j * np.multiply.outer(q, y - ystar)) @ wu


def zero_transform() -> TransformFn:
    """Transform of identically-zero data (entire, vanishing)."""
    return TransformFn(
        ENTIRE,
        lambda q: (np.zeros(np.shape(q), dtype=complex), 0.0),
        label="zero",
    )


def transform_of(source, extent: tuple[float, float]) -> TransformFn:
    """Build the transform of an initial-data source on the given extent."""
    x_lo, x_hi = extent
    if source is None:
        return zero_transform()
    if isinstance(source, ExpPolynomial):
        if math.isinf(x_lo) and math.isfinite(x_hi):
            if source.side != "left" or source.endpoint > x_hi + 1e-12:
                raise WrongDecaySign("left layer needs left-sided data inside it")
            return halfline_transform(source)
        if math.isfinite(x_lo) and math.isinf(x_hi):
            if source.side != "right" or source.endpoint < x_lo - 1e-12:
                raise WrongDecaySign("right layer needs right-sided data inside it")
            return halfline_transform(source)
        # exp-polynomial on a finite layer: transform by quadrature
        return interval_transform(SampledInterval(source, x_lo, x_hi))
    if isinstance(source, SampledInterval):
        if math.isinf(x_lo) or math.isinf(x_hi):
            raise WrongDecaySign("sampled profiles are allowed on finite extents only")
        return interval_transform(source)
    raise TypeError(f"unsupported initial-data source {type(source).__name__}")


def em1(z):
    """(exp(z) - 1)/z with the removable singularity filled by series.

    Four-term Taylor branch below |z| < 1e-4 keeps full double accuracy
    through the switch.
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 0.0, z)
    with np.errstate(invalid="ignore", over="ignore"):
        direct = np.where(small, 0.0, np.expm1(zs) / np.where(small, 1.0, zs))
    series = 1.0 + z / 2.0 + z**2 / 6.0 + z**3 / 24.0
    return np.where(small, series, direct)


def time_transform_constant(value, omega, t):
    """``value * (e^{omega t} - 1)/omega`` = int_0^t e^{omega s} value ds."""
    if t <= 0:
        raise ValueError("time transform requires t > 0")
    res = value * t * em1(np.asarray(omega, dtype=complex) * t)
    return complex(res) if np.ndim(omega) == 0 else res


@dataclass(frozen=True)
class BoundaryData:
    """Boundary datum f(t) = sum of ``value * t^power * exp(rate t)`` terms.

    Only this family has closed-form exponential time transforms, which the
    contour kernels require.
    """

    terms: tuple[tuple[float, int, float], ...] = ()

    @staticmethod
    def constant(value: float) -> "BoundaryData":
        if value == 0.0:
            return BoundaryData(())
        return BoundaryData(((float(value), 0, 0.0),))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        for value, power, rate in self.terms:
            out += value * t**power * np.exp(rate * t)
        return out if out.shape else float(out)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v, _, _ in self.terms)

    def limit_at_infinity(self) -> float:
        """Long-time limit, defined only when every rate is <= 0."""
        out = 0.0
        for value, power, rate in self.terms:
            if rate > 0:
                raise ValueError("boundary datum diverges as t -> inf")
            if rate == 0 and power > 0:
                raise ValueError("boundary datum diverges as t -> inf")
            if rate == 0 and power == 0:
                out += value
        return out

    def residual(self) -> "BoundaryData":
        """The datum minus its long-time limit (decays to zero)."""
        lim = self.limit_at_infinity()
        terms = [t for t in self.terms if not (t[1] == 0 and t[2] == 0)]
        const = sum(v for v, p, r in self.terms if p == 0 and r == 0) - lim
        if const != 0.0:
            terms.append((const, 0, 0.0))
        return BoundaryData(tuple(terms))

    def scaled_time_transform(self, omega, t):
        """``e^{-omega t} int_0^t e^{omega s} f(s) ds``, bounded for Re(omega) >= 0.

        Uses the stable recursion J_p = (t^p e^{rate t} - p J_{p-1}) / mu with
        mu = omega + rate, switching to the series
        ``e^{-omega t} t^{p+1} sum_j (mu t)^j / (j! (p+j+1))`` for small |mu t|.
        """
        omega = np.asarray(omega, dtype=complex)
        out = np.zeros(omega.shape, dtype=complex)
        for value, power, rate in self.terms:
            if value == 0:
                continue
            mu = omega + rate
            small = np.abs(mu * t) < 1e-4
            # series branch (times e^{-omega t})
            ser = np.zeros(omega.shape, dtype=complex)
            fac = 1.0
            for j in range(4):
                ser += (mu * t) ** j / (fac * (power + j + 1))
                fac *= j + 1
            ser = t ** (power + 1) * ser * np.exp(-omega * t)
            # recursion branch
            mu_safe = np.where(small, 1.0, mu)
            J = (np.exp(rate * t) - np.exp(-omega * t)) / mu_safe  # p = 0
            for p in range(1, power + 1):
                J = (t**p * np.exp(rate * t) - p * J) / mu_safe
            out += value * np.where(small, ser, J)
        return out


_math_erf = np.frompyfunc(math.erf, 1, 1)


def erf_real(z):
    """Error function on the real line, as a float array of ``z``'s shape
    (a float scalar for scalar ``z``).

    Calls the C library's ``erf`` through ``math.erf`` once per element, so
    the solve path needs no scipy; on [-8, 8] it agrees with
    ``scipy.special.erf`` to 3.3e-16 absolute.  +-inf gives +-1 and NaN
    gives NaN.
    """
    return np.asarray(_math_erf(z), dtype=float)[()]
