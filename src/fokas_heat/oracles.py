"""Independent reference solvers used to verify the contour evaluators.

Three oracles, each built on different numerics than the thing it checks:

* :func:`crank_nicolson` -- composite-medium finite differences, second
  order in space and time, interface rows enforcing temperature continuity
  and one-sided flux balance;
* :func:`classical_series_two_finite` -- the eigenfunction series of the
  two-layer Dirichlet slab, eigenvalues from bracketed bisection on the real
  oscillatory factor of the denominator function;
* :func:`heat_kernel_whole_line` -- Gaussian-kernel quadrature for the
  single-medium whole-line reduction.

:func:`run_verification` bundles the geometry-appropriate cross-checks into
a pass/fail report (the CLI ``verify`` command prints it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import lapack

from ._accel import cached_leggauss as leggauss
from .core import Geometry, ProblemConfig, validate
from .errors import FokasHeatError, OracleNotApplicable, RootBracketFailure, TruncationTooTight
from .solver_finite import (
    delta_two_finite_left,
    delta_two_finite_real_form,
    steady_state,
)
from .transforms import ExpPolynomial

# ---------------------------------------------------------------------------
# composite-medium Crank-Nicolson

# backward-Euler half-steps before Crank-Nicolson (Rannacher, Numer. Math. 43
# (1984)); a fixed number of them leaves the scheme second order
_DAMPING_HALF_STEPS = 4


@dataclass(frozen=True)
class FDGrid:
    """Uniform per-layer grids sharing interface nodes, plus the time step."""

    xs: np.ndarray
    dt: float
    layer_starts: tuple[int, ...]  # first node index of each layer
    sigmas: tuple[float, ...]
    spacings: tuple[float, ...]

    @property
    def interfaces(self) -> tuple[int, ...]:
        return self.layer_starts[1:]


def _truncated_extents(config: ProblemConfig, t_end: float) -> list[tuple[float, float]]:
    """Finite computational extents; semi-infinite layers are truncated where
    the data and the diffusion cone are both negligible."""
    out = []
    for layer, src in zip(config.layers, config.initial_data):
        lo, hi = layer.x_lo, layer.x_hi
        reach = 10.0 * layer.sigma * math.sqrt(t_end)
        if math.isinf(lo):
            ext = reach
            if isinstance(src, ExpPolynomial):
                ext = max(ext, abs(src.endpoint - hi) + src.decay_extent(1e-12))
            lo = hi - 1.1 * ext
        if math.isinf(hi):
            ext = reach
            if isinstance(src, ExpPolynomial):
                ext = max(ext, abs(src.endpoint - lo) + src.decay_extent(1e-12))
            hi = lo + 1.1 * ext
        out.append((lo, hi))
    return out


def make_grid(
    config: ProblemConfig,
    n_per_layer: int | tuple[int, ...] = 200,
    *,
    t_end: float,
    dt: float | None = None,
    courant: float = 0.5,
) -> FDGrid:
    """Build per-layer uniform grids sharing the interface abscissae.

    ``courant`` bounds sigma^2 dt / dx^2 when ``dt`` is not given; the scheme
    is unconditionally stable, so this is purely an accuracy knob.
    """
    extents = _truncated_extents(config, t_end)
    if isinstance(n_per_layer, int):
        n_per_layer = (n_per_layer,) * len(config.layers)
    xs = []
    starts = []
    spacings = []
    for i, ((lo, hi), n) in enumerate(zip(extents, n_per_layer)):
        pts = np.linspace(lo, hi, n + 1)
        spacings.append(pts[1] - pts[0])
        # interface nodes are shared: each layer after the first starts on
        # the last node already emitted
        starts.append(0 if i == 0 else len(xs) - 1)
        xs.extend(pts if i == 0 else pts[1:])
    xs = np.asarray(xs)
    if dt is None:
        dt = courant * min(
            h**2 / layer.sigma**2 for h, layer in zip(spacings, config.layers)
        )
    return FDGrid(xs, float(dt), tuple(starts), config.sigmas, tuple(spacings))


@dataclass
class FDSolution:
    xs: np.ndarray
    times: list[float]
    fields: list[np.ndarray]
    layer_starts: tuple[int, ...]

    def at(self, t: float) -> np.ndarray:
        for tt, f in zip(self.times, self.fields):
            if abs(tt - t) <= 1e-12 * max(1.0, abs(t)):
                return f
        raise KeyError(f"no stored field at t={t}")

    def interp(self, t: float, x) -> np.ndarray:
        f = self.at(t)
        return np.interp(np.asarray(x, dtype=float), self.xs, f)


def _initial_profile(config: ProblemConfig, xs: np.ndarray) -> np.ndarray:
    """Initial field on grid nodes; interface nodes average the two one-sided
    limits (the data may jump there)."""

    def one_layer(i, pts):
        base = config.far_field[i] if config.geometry == Geometry.TWO_SEMI_INFINITE else 0.0
        src = config.initial_data[i]
        if src is None:
            return np.full(pts.shape, base)
        return base + np.real(np.asarray(src(pts), dtype=complex))

    u0 = np.zeros(xs.shape)
    eps = 1e-12 * max(1.0, float(np.max(np.abs(xs))))
    for i, layer in enumerate(config.layers):
        lo, hi = layer.x_lo, layer.x_hi
        sel = (xs > lo + eps) & (xs < hi - eps) if math.isfinite(lo) else (xs < hi - eps)
        if math.isfinite(lo) and i == 0:
            sel |= np.abs(xs - lo) <= eps
        if math.isfinite(hi) and i == len(config.layers) - 1:
            sel |= np.abs(xs - hi) <= eps
        u0[sel] = one_layer(i, xs[sel])
    for i in range(len(config.layers) - 1):
        xi = config.layers[i].x_hi
        sel = np.abs(xs - xi) <= eps
        if np.any(sel):
            u0[sel] = 0.5 * (one_layer(i, xs[sel]) + one_layer(i + 1, xs[sel]))
    return u0


def crank_nicolson(
    config: ProblemConfig,
    grid: FDGrid,
    t_end: float,
    sample_times: Optional[list[float]] = None,
    *,
    boundary_monitor_tol: float = 1e-6,
) -> FDSolution:
    """March the composite-medium heat problem to ``t_end``.

    Interior rows are standard Crank-Nicolson per layer, after four
    backward-Euler half-steps that damp the start-up; interface rows
    impose the one-sided flux balance (second order on both sides) with the
    shared node enforcing temperature continuity; end rows impose the
    configured boundary condition (Dirichlet value, homogeneous Neumann, or
    the far-field value at a truncation boundary, whose drift is monitored
    and raises TruncationTooTight).
    """
    validate(config)
    xs = grid.xs
    n = xs.size
    dt = grid.dt
    n_steps = max(1, int(round(t_end / dt)))
    dt = t_end / n_steps

    layer_of = np.zeros(n, dtype=int)
    for i, start in enumerate(grid.layer_starts):
        layer_of[start:] = i

    # A[i, i + d] is band[d + 2, i] for |d| <= 2; B is tridiagonal with
    # zero rows at the constraint rows (ends and interfaces)
    interior = np.ones(n, dtype=bool)
    interior[[0, n - 1, *grid.interfaces]] = False
    h = np.asarray(grid.spacings)[layer_of]
    r = np.where(interior, 0.5 * np.asarray(grid.sigmas)[layer_of] ** 2 * dt / h**2, 0.0)
    band = np.zeros((5, n))
    band[1], band[2], band[3] = -r, np.where(interior, 1 + 2 * r, 0.0), -r
    b_diag = np.where(interior, 1 - 2 * r, 0.0)

    # interface rows: sigma_l^2 u_x(X-) = sigma_r^2 u_x(X+), one-sided both sides
    for i in grid.interfaces:
        ll, lr = layer_of[i - 1], layer_of[i + 1]
        h1, h2 = grid.spacings[ll], grid.spacings[lr]
        s1, s2 = grid.sigmas[ll] ** 2, grid.sigmas[lr] ** 2
        band[:, i] = (
            s1 / (2 * h1),
            -4 * s1 / (2 * h1),
            3 * s1 / (2 * h1) + 3 * s2 / (2 * h2),
            -4 * s2 / (2 * h2),
            s2 / (2 * h2),
        )

    # end rows
    geo = config.geometry
    left_dirichlet_value: Callable[[float], float] | None = None
    right_dirichlet_value: Callable[[float], float] | None = None
    if geo in (Geometry.TWO_SEMI_INFINITE, Geometry.THREE_INFINITE):
        gl, gr = (config.far_field or (0.0, 0.0))
        left_dirichlet_value = lambda t: gl
        right_dirichlet_value = lambda t: gr
        band[2, [0, n - 1]] = 1.0
    else:
        for side, i0, sgn in (("left", 0, 1), ("right", n - 1, -1)):
            end = config.end_left if side == "left" else config.end_right
            h_end = grid.spacings[0 if side == "left" else -1]
            if end.alpha_ux == 0:  # Dirichlet
                band[2, i0] = 1.0
                fn = (lambda t, e=end: e.data(t) / e.alpha_u)
                if side == "left":
                    left_dirichlet_value = fn
                else:
                    right_dirichlet_value = fn
            else:  # homogeneous Neumann
                band[2, i0] = sgn * -3.0 / (2 * h_end)
                band[2 + sgn, i0] = sgn * 4.0 / (2 * h_end)
                band[2 + 2 * sgn, i0] = sgn * -1.0 / (2 * h_end)

    # the one-sided rows reach two nodes out; subtract a multiple of the
    # adjacent interior row to clear that entry, leaving a tridiagonal A
    # (the same multiples are applied to the right-hand side every step)
    eliminate = []  # (row, interior row, multiple)
    for i in np.nonzero(band[0])[0]:
        f = band[0, i] / band[1, i - 1]
        band[0:3, i] -= f * band[1:4, i - 1]
        eliminate.append((int(i), int(i) - 1, float(f)))
    for i in np.nonzero(band[4])[0]:
        f = band[4, i] / band[3, i + 1]
        band[2:5, i] -= f * band[1:4, i + 1]
        eliminate.append((int(i), int(i) + 1, float(f)))
    dl, d, du, du2, ipiv, info = lapack.dgttrf(band[1, 1:], band[2], band[3, :-1])
    if info != 0:
        raise FokasHeatError("Crank-Nicolson matrix is singular")

    u = _initial_profile(config, xs)
    samples = sorted(set(sample_times or [])) or []
    out_times, out_fields = [], []
    next_sample = 0

    truncated = geo in (Geometry.TWO_SEMI_INFINITE, Geometry.THREE_INFINITE)
    u_scale = max(1.0, float(np.max(np.abs(u))))

    # Rannacher start-up: backward-Euler half-steps first, so that stiff modes
    # excited by data that jumps or breaks an end condition decay instead of
    # flipping sign each step (CN's amplification tends to -1 for them).
    # Backward Euler at dt/2 has CN's own A, and B = I on the interior rows.
    n_damp = min(_DAMPING_HALF_STEPS, 2 * n_steps)
    t = 0.0
    for step in range(n_damp + n_steps - n_damp // 2):
        damped = step < n_damp
        t_next = (step + 1) * 0.5 * dt if damped else (step + 1 - n_damp // 2) * dt
        # B u; the constraint rows (interfaces, Neumann ends) get rhs 0
        if damped:
            rhs = np.where(interior, u, 0.0)
        else:
            rhs = b_diag * u
            rhs[1:] += r[1:] * u[:-1]
            rhs[:-1] += r[:-1] * u[1:]
        if left_dirichlet_value is not None:
            rhs[0] = left_dirichlet_value(t_next)
        if right_dirichlet_value is not None:
            rhs[-1] = right_dirichlet_value(t_next)
        for i, j, f in eliminate:
            rhs[i] -= f * rhs[j]
        u = lapack.dgttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=True)[0]
        t = t_next
        if damped and step % 2 == 0:
            continue  # samples are taken on whole steps only
        while next_sample < len(samples) and samples[next_sample] <= t + 0.5 * dt:
            out_times.append(samples[next_sample])
            out_fields.append(u.copy())
            next_sample += 1

    if truncated:
        gl, gr = config.far_field
        drift = max(abs(u[1] - gl), abs(u[-2] - gr))
        if drift > boundary_monitor_tol * u_scale:
            raise TruncationTooTight(
                f"solution reached the artificial boundary (drift {drift:.2e})"
            )

    if not out_times or abs(out_times[-1] - t_end) > 1e-12 * max(1.0, t_end):
        out_times.append(t_end)
        out_fields.append(u.copy())
    return FDSolution(xs, out_times, out_fields, grid.layer_starts)


# ---------------------------------------------------------------------------
# classical eigenfunction series for the two-layer Dirichlet slab


def two_finite_eigenvalues(sL, sR, a, b, n_modes: int, *, max_scan: int | None = None) -> np.ndarray:
    """First positive zeros of the real eigenvalue condition, by bisection.

    Brackets of width pi/(2 (a + b sL/sR)) cannot straddle two roots of the
    dominant-frequency factor, and every zero is real, so scanning brackets
    for sign changes finds them all in order.  ``max_scan`` caps the number
    of brackets examined (RootBracketFailure beyond it).
    """
    g = delta_two_finite_real_form(sL, sR, a, b)
    width = math.pi / (2.0 * (a + b * sL / sR))
    roots = []
    k_lo = 1e-12
    k = k_lo
    if max_scan is None:
        max_scan = int(n_modes * 40 + 200)
    for _ in range(max_scan):
        k2 = k + width
        f1, f2 = g(k), g(k2)
        if f1 == 0.0:
            roots.append(float(k))
        elif f1 * f2 < 0:
            lo, hi = k, k2
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = g(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if g(lo) * fm < 0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
        if len(roots) >= n_modes:
            return np.asarray(roots[:n_modes])
        k = k2
    raise RootBracketFailure(
        f"found only {len(roots)} of {n_modes} eigenvalues while scanning"
    )


@dataclass
class SeriesSolution:
    """Eigenfunction-series evaluator for the two-layer Dirichlet slab."""

    config: ProblemConfig
    eigenvalues: np.ndarray
    _phi: list
    _coef: np.ndarray
    _steady: object

    def values(self, x, t: float) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.asarray(self._steady(x), dtype=float).copy()
        sL = self.config.layers[0].sigma
        for kn, phi, cn in zip(self.eigenvalues, self._phi, self._coef):
            out += cn * math.exp(-((sL * kn) ** 2) * t) * phi(x)
        return out

    def value(self, x: float, t: float) -> float:
        return float(self.values([x], t)[0])


def _layer_quad(lo, hi, n_panels=24, order=10):
    xg, wg = leggauss(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    xs, ws = [], []
    for e0, e1 in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (e0 + e1), 0.5 * (e1 - e0)
        xs.append(mid + half * xg)
        ws.append(wg * half)
    return np.concatenate(xs), np.concatenate(ws)


def _constant_end_data(config: ProblemConfig) -> bool:
    return config.end_left.data.residual().is_zero and config.end_right.data.residual().is_zero


def classical_series_two_finite(config: ProblemConfig, n_modes: int = 50) -> SeriesSolution:
    """Separation-of-variables series for the two-layer Dirichlet slab.

    The end data must be constant in time (it is homogenized away by the
    piecewise-linear steady state); time-dependent end data raises
    OracleNotApplicable.  Eigenfunctions are piecewise sinusoids
    vanishing at the ends, glued by temperature and flux continuity;
    orthogonality is plain L2 on (-a, b), which the interface conditions
    make exact.
    """
    validate(config)
    if config.geometry != Geometry.TWO_FINITE:
        raise FokasHeatError("classical series requires the two_finite geometry")
    if not _constant_end_data(config):
        raise OracleNotApplicable("classical series requires end data constant in time")
    sL, sR = config.sigmas
    a, b = -config.layers[0].x_lo, config.layers[1].x_hi
    bp = b * sL / sR
    stead = steady_state(config)
    ks = two_finite_eigenvalues(sL, sR, a, b, n_modes)
    dL = delta_two_finite_left(sL, sR, a, b)
    resid = np.max(np.abs(dL(ks)))
    if resid > 1e-8:
        raise RootBracketFailure(f"eigenvalue residual too large: {resid:.2e}")

    phis = []
    for kn in ks:
        s_b, c_b = math.sin(kn * bp), math.cos(kn * bp)
        if abs(s_b) >= abs(c_b):
            B = -math.sin(kn * a) / s_b
        else:
            B = sL * math.cos(kn * a) / (sR * c_b)

        def phi(x, kn=kn, B=B):
            x = np.asarray(x, dtype=float)
            left = np.sin(kn * (x + a))
            right = B * np.sin(kn * (sL / sR) * (x - b))
            return np.where(x <= 0.0, left, right)

        phis.append(phi)

    xq_l, wq_l = _layer_quad(-a, 0.0, n_panels=max(16, n_modes), order=10)
    xq_r, wq_r = _layer_quad(0.0, b, n_panels=max(16, n_modes), order=10)
    xq = np.concatenate([xq_l, xq_r])
    wq = np.concatenate([wq_l, wq_r])
    u0 = _initial_profile(config, xq) - stead(xq)

    coefs = np.empty(len(ks))
    for i, phi in enumerate(phis):
        pv = phi(xq)
        coefs[i] = float(np.sum(wq * u0 * pv) / np.sum(wq * pv * pv))

    return SeriesSolution(config, ks, phis, coefs, stead)


def single_medium_neumann_series(profile, sigma, lo, hi, n_modes=200):
    """Cosine series for one insulated homogeneous slab (oracle helper)."""
    W = hi - lo
    xq, wq = _layer_quad(lo, hi, n_panels=max(32, n_modes // 2), order=10)
    u0 = np.real(np.asarray(profile(xq), dtype=complex))
    c0 = float(np.sum(wq * u0) / W)
    qs = np.arange(1, n_modes + 1) * math.pi / W
    cs = np.array([2.0 / W * np.sum(wq * u0 * np.cos(q * (xq - lo))) for q in qs])

    def ev(x, t):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.full(x.shape, c0)
        for q, cn in zip(qs, cs):
            out += cn * math.exp(-(sigma * q) ** 2 * t) * np.cos(q * (x - lo))
        return out

    return ev


# ---------------------------------------------------------------------------
# whole-line heat kernel


def heat_kernel_whole_line(u0_left, u0_right, sigma: float, x: float, t: float) -> float:
    """Gaussian-kernel quadrature of the whole-line solution, equal sigmas.

    ``u0_left``/``u0_right`` are either ExpPolynomial deviations on their
    half lines, explicit ``(callable, lo, hi)`` windows, or None.  Computes
    (4 pi sigma^2 t)^{-1/2} int e^{-(x-y)^2/(4 sigma^2 t)} u0(y) dy
    over the numerically supported range.
    """
    width = 2.0 * sigma * math.sqrt(t)
    reach = 8.0 * width

    def window(src, side):
        # integrate over the intersection of the data's numerical support
        # with the kernel's reach around x
        if isinstance(src, ExpPolynomial):
            ext = src.decay_extent(1e-18)
            feature = min(width, 1.0 / max(abs(complex(tm.rate).real) for tm in src.terms))
            if side == "left":
                d_lo, d_hi = src.endpoint - ext, src.endpoint
            else:
                d_lo, d_hi = src.endpoint, src.endpoint + ext
            return src, max(d_lo, x - reach), min(d_hi, x + reach), feature
        fn, lo, hi = src
        return fn, max(lo, x - reach), min(hi, x + reach), width

    total = 0.0
    for side, src in (("left", u0_left), ("right", u0_right)):
        if src is None:
            continue
        fn, lo, hi, feature = window(src, side)
        if hi <= lo:
            continue
        n_panels = min(4000, max(8, int(math.ceil((hi - lo) / (0.75 * feature)))))
        xq, wq = _layer_quad(lo, hi, n_panels=n_panels, order=12)
        kern = np.exp(-((x - xq) ** 2) / (4 * sigma**2 * t)) / math.sqrt(
            4 * math.pi * sigma**2 * t
        )
        total += float(np.sum(wq * kern * np.real(np.asarray(fn(xq), dtype=complex))))
    return total


# ---------------------------------------------------------------------------
# verification bundles


@dataclass
class CheckResult:
    name: str
    error: float
    tol: float
    passed: bool
    note: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        note = f"  ({self.note})" if self.note else ""
        return f"{mark}  {self.name}: error {self.error:.3e} vs tol {self.tol:.1e}{note}"


def _check(name, error, tol, note="") -> CheckResult:
    return CheckResult(name, float(error), float(tol), bool(error < tol), note)


def run_verification(config: ProblemConfig, t_check: float = 0.1, quick: bool = False) -> list[CheckResult]:
    """Run the geometry-appropriate oracle cross-checks on one configuration."""
    from ._field import Numerics
    from .solver_finite import solve_three_finite, solve_two_finite_dirichlet
    from .solver_semi_infinite import solve_three_infinite, solve_two_semi_infinite

    validate(config)
    geo = config.geometry
    checks: list[CheckResult] = []

    if geo == Geometry.TWO_SEMI_INFINITE:
        sol = solve_two_semi_infinite(config)
        build = lambda **kw: solve_two_semi_infinite(config, Numerics(**kw))
        interfaces = [0.0]
    elif geo == Geometry.TWO_FINITE:
        sol = solve_two_finite_dirichlet(config)
        build = lambda **kw: solve_two_finite_dirichlet(config, Numerics(**kw))
        interfaces = [0.0]
    elif geo == Geometry.THREE_INFINITE:
        sol = solve_three_infinite(config)
        build = lambda **kw: solve_three_infinite(config, numerics=Numerics(**kw))
        interfaces = [config.layers[1].x_lo, config.layers[1].x_hi]
    else:
        sol = solve_three_finite(config)
        build = lambda **kw: solve_three_finite(config, numerics=Numerics(**kw))
        interfaces = [0.0, config.layers[1].x_hi]

    # interface continuity and flux continuity
    uscale = 1.0
    for i, xi in enumerate(interfaces):
        li = config.layer_index(xi)  # layer left of the interface
        ul = float(sol.values_in_layer(li, np.array([xi]), t_check)[0])
        ur = float(sol.values_in_layer(li + 1, np.array([xi]), t_check)[0])
        uscale = max(uscale, abs(ul), abs(ur))
        checks.append(
            _check(f"interface_continuity[{i}]", abs(ul - ur), 1e-6 * uscale)
        )
        dl = sol.derivative(xi, t_check, layer=li)
        dr = sol.derivative(xi, t_check, layer=li + 1)
        fl = config.layers[li].sigma ** 2 * dl
        fr = config.layers[li + 1].sigma ** 2 * dr
        fscale = max(abs(fl), abs(fr), 1e-12 * uscale)
        checks.append(_check(f"flux_continuity[{i}]", abs(fl - fr) / fscale, 1e-2))

    # arc-radius independence; the arc is forced on, since plans that need
    # none would build identical contours at both radii
    x_probe = _probe_xs(config, t_check)
    v1 = build(arc_radius=0.5, avoid_origin=True).values(x_probe, t_check)
    v2 = build(arc_radius=2.0, avoid_origin=True).values(x_probe, t_check)
    checks.append(
        _check("arc_radius_independence", np.max(np.abs(v1 - v2)), 1e-8 * max(1.0, uscale))
    )

    if geo == Geometry.TWO_SEMI_INFINITE:
        gl, gr = config.far_field
        sL, sR = config.sigmas
        target = (gl * sL + gr * sR) / (sL + sR)
        checks.append(
            _check("steady_weighted_average", abs(sol.value(0.0, 1e3) - target), 1e-6)
        )
        if abs(sL - sR) < 1e-14 and not quick:
            err = 0.0
            for x in x_probe:
                hk = heat_kernel_whole_line(
                    config.initial_data[0], config.initial_data[1], sL, float(x), t_check
                )
                who = gl + (gr - gl) * 0.5 * (1 + math.erf(x / (2 * sL * math.sqrt(t_check))))
                err = max(err, abs(sol.value(float(x), t_check) - hk - (who if gl != gr else gl)))
            checks.append(_check("whole_line_reduction", err, 1e-8))
        if not quick:
            checks.append(_fd_check(config, sol, t_check, x_probe))
    elif geo == Geometry.TWO_FINITE:
        tra = solve_two_finite_dirichlet(config, path="transcribed")
        dual = np.max(np.abs(sol.values(x_probe, t_check) - tra.values(x_probe, t_check)))
        checks.append(_check("dual_path_agreement", dual, 1e-8 * max(1.0, uscale)))
        if _constant_end_data(config):
            tser = max(t_check, 0.05)
            ser = classical_series_two_finite(config, 50)
            serr = np.max(np.abs(sol.values(x_probe, tser) - ser.values(x_probe, tser)))
            checks.append(_check("classical_series", serr, 1e-6 * max(1.0, uscale)))
        elif not quick:
            checks.append(_fd_check(config, sol, t_check, x_probe))
        st = steady_state(config)
        lerr = np.max(np.abs(sol.values(x_probe, 1e3) - st(x_probe)))
        checks.append(_check("long_time_steady", lerr, 1e-6 * max(1.0, uscale)))
    elif geo == Geometry.THREE_INFINITE:
        if all(src is None for src in config.initial_data[1:]):
            res = solve_three_infinite(config, "restricted")
            err = np.max(np.abs(sol.values(x_probe, t_check) - res.values(x_probe, t_check)))
            checks.append(_check("restricted_vs_full", err, 1e-10 * max(1.0, uscale)))
        if not quick:
            checks.append(_fd_check(config, sol, t_check, x_probe))
    else:  # three finite
        heats = []
        for tt in (0.01, 0.1, 0.3, 1.0):
            heats.append(_total_heat(sol, tt))
        drift = (max(heats) - min(heats)) / max(abs(h) for h in heats)
        checks.append(_check("heat_conservation", drift, 1e-6))
        for name, xe, li in (("left_end_flux", config.x_min, 0), ("right_end_flux", config.x_max, 2)):
            d = sol.derivative(xe, t_check, layer=li)
            checks.append(_check(name, abs(d), 1e-4 * max(1.0, uscale)))
    return checks


def _probe_xs(config: ProblemConfig, t: float) -> np.ndarray:
    """Probe points per layer; infinite layers probe within a few diffusion
    widths of their interface so the checks see the active region."""
    pts = []
    for layer in config.layers:
        reach = 3.0 * layer.sigma * math.sqrt(t)
        lo = layer.x_lo if math.isfinite(layer.x_lo) else layer.x_hi - reach
        hi = layer.x_hi if math.isfinite(layer.x_hi) else layer.x_lo + reach
        w = hi - lo
        pts.extend([lo + 0.2 * w, lo + 0.55 * w, lo + 0.9 * w])
    return np.asarray(pts)


def _total_heat(sol, t: float) -> float:
    total = 0.0
    for i, layer in enumerate(sol.config.layers):
        xq, wq = _layer_quad(layer.x_lo, layer.x_hi, n_panels=24, order=10)
        total += float(np.sum(wq * sol.values_in_layer(i, xq, t)))
    return total


def _fd_check(config, sol, t_check, x_probe, tol=1e-4) -> CheckResult:
    grid = make_grid(config, 900, t_end=t_check, dt=t_check / 400)
    fd = crank_nicolson(config, grid, t_check)
    err = np.max(np.abs(sol.values(x_probe, t_check) - fd.interp(t_check, x_probe)))
    scale = max(1.0, float(np.max(np.abs(fd.fields[-1]))))
    return _check("crank_nicolson_agreement", err, tol * scale)
