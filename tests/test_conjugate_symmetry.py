"""Guard for the half contours: every kernel obeys f(-conj k) = conj f(k).

The contours hold only their Re k > 0 half and the field takes twice the
real part of the sum (see ``fokas_heat.contours``).  That is exact only if
every nodal integrand a plan assembles is conjugate-symmetric under
k -> -conj(k).  A kernel that breaks the symmetry fails here instead of
silently giving wrong temperatures.
"""

import math

import numpy as np

from fokas_heat._field import _term_nodal
from fokas_heat.contours import THETA_DEFAULT
from fokas_heat.solver_finite import solve_three_finite, solve_two_finite_dirichlet
from fokas_heat.solver_semi_infinite import solve_three_infinite, solve_two_semi_infinite

T = 0.1
REL = 1e-13

# Re k > 0 points on each half: the ray at theta and the arc between theta
# and pi/2 (upper), their conjugates (lower), and the positive axis (real)
_UPPER = np.array(
    [s * np.exp(1j * THETA_DEFAULT) for s in (0.4, 1.3, 4.0, 9.0)]
    + [0.8 * np.exp(1j * phi) for phi in (0.5, 1.0, 1.5)]
)
POINTS = {"upper": _UPPER, "lower": np.conj(_UPPER), "real": np.array([0.3, 1.7, 5.0, 11.0]) + 0j}


def _fields(fig5, slab, steady_slab, three_inf, three_fin_full):
    return [
        solve_two_semi_infinite(fig5, path="transcribed"),
        solve_two_semi_infinite(fig5, path="linear_solve"),
        solve_two_finite_dirichlet(slab, path="transcribed"),
        solve_two_finite_dirichlet(slab, path="linear_solve"),
        solve_two_finite_dirichlet(steady_slab, path="transcribed"),
        solve_two_finite_dirichlet(steady_slab, path="linear_solve"),
        solve_three_infinite(three_inf, "restricted"),
        solve_three_infinite(three_inf, "full"),
        solve_three_finite(three_fin_full),
    ]


def _assert_conjugate(vals, mirrored, what) -> int:
    """Assert mirrored == conj(vals); return 1 if vals is not all zero
    (terms of zero data), else 0."""
    vals, mirrored = np.asarray(vals), np.asarray(mirrored)
    scale = float(np.max(np.abs(vals)))
    assert math.isfinite(scale), what
    err = float(np.max(np.abs(mirrored - np.conj(vals))))
    assert err <= REL * scale, f"{what}: |f(-conj k) - conj f(k)| = {err:.2e} of {scale:.2e}"
    return int(scale > 0.0)


def test_every_kernel_is_conjugate_symmetric(
    fig5_config, slab_config, steady_slab_config, three_infinite_config, three_finite_full_config
):
    fields = _fields(
        fig5_config, slab_config, steady_slab_config, three_infinite_config, three_finite_full_config
    )
    for sol in fields:
        checked = 0
        for idx, plan in enumerate(sol.plans):
            for half in sorted(plan.contour_halves()):
                k = POINTS[half]
                km = -np.conj(k)
                ones = np.ones(k.shape)
                for j, term in enumerate(plan.terms):
                    if term.contour != half:
                        continue
                    checked += _assert_conjugate(
                        _term_nodal(term, k, ones, plan.sigma, T, half),
                        _term_nodal(term, km, ones, plan.sigma, T, half),
                        f"{sol.label} layer {idx} {half} term {j}",
                    )
                if plan.solve_fn is None or half not in plan.solve_halves:
                    continue
                out, out_m = plan.solve_fn(k, half, T), plan.solve_fn(km, half, T)
                if not isinstance(out, list):
                    out, out_m = [(out, 0.0)], [(out_m, 0.0)]
                for j, ((vals, shift), (vals_m, shift_m)) in enumerate(zip(out, out_m)):
                    assert shift == shift_m
                    checked += _assert_conjugate(
                        vals, vals_m, f"{sol.label} layer {idx} {half} solve piece {j}"
                    )
        # every field contributes nonzero kernels: the guard cannot pass vacuously
        assert checked > 0, sol.label

