"""Seeded workload generators: each operation is config text plus a command.

The program under test sees only the generated text.  The seed draws the
output times (log-uniform, one per stratum so every round carries about the
same work) and jitters the grid sizes by a few percent.  Layer data and
material constants are fixed per operation kind, so a round of one workload
costs about the same under every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# fig5 initial data (configs/fig5.cfg)
_FIG5 = (
    "sigma_left = 0.02\nsigma_right = 0.06\ngamma_left = 0\ngamma_right = 0\n"
    "left.initial = exp_poly: 1 x^2 e^{625x}\n"
    "right.initial = exp_poly: 1 x^2 e^{-900x}\n"
)


def _c1_left(a: float, rate: float = 2.0) -> str:
    """(x+a)^2 e^{rate (x+a)} on (-inf, -a]: continuous with zero slope at -a."""
    s = math.exp(rate * a)
    return (
        f"exp_poly: {s!r} x^2 e^{{{rate!r}x}} + {2 * a * s!r} x e^{{{rate!r}x}}"
        f" + {a * a * s!r} e^{{{rate!r}x}}"
    )


_THREE_INF = (
    "sigma_left = 1\nsigma_middle = 0.7\nsigma_right = 1.4\na = 0.6\n"
    f"left.initial = {_c1_left(0.6)}\n"
)

_THREE_FINITE_GEOM = (
    "sigma_left = 1\nsigma_middle = 0.7\nsigma_right = 1.4\na = 1\nb = 1\nc = 2\n"
    "bc.left = neumann_zero\nbc.right = neumann_zero\n"
)
# configs/three_insulated.cfg data
_THREE_INSULATED = "left.initial = expr: sin(pi*x/2)**2 * (1+x)\n"
_TWO_FINITE = (
    "sigma_left = 1\nsigma_right = 2\na = 1\nb = 1\n"
    "bc.left = dirichlet: 0\nbc.right = dirichlet: 1\n"
    "left.initial = expr: 0.5*(1+x)*(1 + sin(pi*x))\n"
    "right.initial = expr: 0.5 + 0.5*x + 0.3*sin(2*pi*x)\n"
)


@dataclass(frozen=True)
class Op:
    """One operation: ``solve`` writes a CSV, ``verify`` writes a report."""

    command: str
    name: str
    text: str


def _times(rng, lo: float, hi: float, n: int) -> list[float]:
    """``n`` log-uniform times in [lo, hi], one per equal-width log stratum."""
    edges = np.linspace(math.log(lo), math.log(hi), n + 1)
    return [float(math.exp(e0 + (e1 - e0) * rng.random())) for e0, e1 in zip(edges[:-1], edges[1:])]


def _jitter(rng, n: int) -> int:
    d = max(1, n // 20)
    return int(n + rng.integers(-d, d + 1))


def _grid(lo: float, hi: float, n: int, times: list[float]) -> str:
    return f"grid.x = {lo!r}:{hi!r}:{n}\ngrid.t = {','.join(repr(t) for t in times)}\n"


def _semi_sweep(rng):
    return [
        Op(
            "solve",
            "two_semi_infinite",
            "geometry = two_semi_infinite\n" + _FIG5
            + _grid(-0.1, 0.1, _jitter(rng, 400), _times(rng, 0.005, 0.05, 16)),
        ),
        Op(
            "solve",
            "three_infinite",
            "geometry = three_infinite\n" + _THREE_INF
            + _grid(-3.0, 3.0, _jitter(rng, 200), _times(rng, 0.02, 0.5, 8)),
        ),
    ]


def _dense_profile(rng):
    return [
        Op(
            "solve",
            "three_finite",
            "geometry = three_finite\n" + _THREE_FINITE_GEOM + _THREE_INSULATED
            + _grid(-1.0, 2.0, _jitter(rng, 10000), _times(rng, 0.05, 0.2, 2)),
        )
    ]


def _verify_all(rng):
    # one check time per case, so the range is narrow: verification cost
    # grows as t shrinks, and a wide range would make rounds unequal
    def t(lo):
        return f"grid.t = {_times(rng, lo, 1.5 * lo, 1)[0]!r}\n"

    return [
        Op("verify", "two_semi_infinite", "geometry = two_semi_infinite\n" + _FIG5 + t(0.008)),
        Op("verify", "two_finite", "geometry = two_finite\n" + _TWO_FINITE + t(0.08)),
        Op("verify", "three_infinite", "geometry = three_infinite\n" + _THREE_INF + t(0.08)),
        Op(
            "verify",
            "three_finite",
            "geometry = three_finite\n" + _THREE_FINITE_GEOM + _THREE_INSULATED + t(0.08),
        ),
    ]


WORKLOADS = {
    "semi-sweep": _semi_sweep,
    "dense-profile": _dense_profile,
    "verify-all": _verify_all,
}


def round_ops(workload: str, seed: int, index: int) -> list[Op]:
    """The operations of round ``index``: one of each kind the workload mixes."""
    rng = np.random.default_rng([seed, index])
    return WORKLOADS[workload](rng)
