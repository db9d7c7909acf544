"""Correctness gate, run on each operation's output outside the timed region.

A solve operation's whole CSV is checked for the configured grid, the layer
column and finite values.  At one of its output times, picked from the config
text so that successive operations check different times, it is compared
with two references:

* an independent oracle: Crank-Nicolson from ``fokas_heat.oracles``;
* the same config solved again at tighter ``Numerics``.

Both tolerances are relative to the solution's own max|u| at that time, not
to ``max(1, |u|)``: fig5 has |u| ~ 1e-6, where an absolute floor of 1 would
pass anything.  A verify operation passes when the CLI exits 0 and every
report line reads PASS.
"""

from __future__ import annotations

import io
import zlib

import numpy as np

from fokas_heat import Numerics, solve
from fokas_heat.cli import parse_config
from fokas_heat.oracles import crank_nicolson, make_grid

# Oracle tolerances, relative to max|u|.  Crank-Nicolson on FD_NODES nodes per
# layer with FD_STEPS steps reaches about 1e-3 of max|u| on the generated
# workloads (worst: three_infinite, 9e-4); 5e-3 leaves margin and still
# fails any formula-level defect.  The tighter solve agrees with the output
# to about 1e-12 of max|u|.
FD_NODES = 400
FD_STEPS = 1000
FD_REL_TOL = 5e-3
# tighter numerics: 10x the configured tolerance, twice the starting order
TIGHT_FACTOR = 1e-1
TIGHT_REL_TOL = 1e-8
# points compared per checked time (evenly strided over the CSV's x)
MAX_POINTS = 800


def read_csv(text: str):
    """Return (x, t, u, layer) arrays of a ``solve`` CSV."""
    head, _, body = text.partition("\n")
    if head != "x,t,u,layer":
        raise ValueError(f"unexpected CSV header {head!r}")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2], data[:, 3].astype(int)


def domain_x(config, manifest) -> np.ndarray:
    """The x values ``fokas-heat solve`` writes: the grid inside the domain."""
    return np.array([x for x in manifest.x_grid if config.x_min <= x <= config.x_max])


def _max_rel_err(u, ref, scale):
    return float(np.max(np.abs(u - ref))) / scale


def check_solve(text: str, csv_text: str) -> list[str]:
    """Problems found in one solve operation's CSV; empty when it passes."""
    config, manifest = parse_config(text)
    x, t, u, layer = read_csv(csv_text)
    xs = domain_x(config, manifest)
    ts = manifest.t_values
    problems = []
    if x.size != xs.size * len(ts):
        return [f"{x.size} rows, expected {xs.size * len(ts)}"]
    if not np.all(np.isfinite(u)):
        return ["non-finite u in CSV"]
    if np.any(t != np.repeat(ts, xs.size)) or np.any(x != np.tile(xs, len(ts))):
        return ["CSV (x, t) rows differ from the configured grid"]
    if any(config.layer_index(float(v)) != li for v, li in zip(xs, layer[: xs.size])):
        problems.append("layer column differs from ProblemConfig.layer_index")

    tc = ts[zlib.crc32(text.encode()) % len(ts)]
    sel = t == tc
    scale = float(np.max(np.abs(u[sel])))
    if not scale > 0.0:
        return problems + [f"t={tc!r}: max|u| is {scale}"]
    stride = max(1, xs.size // MAX_POINTS)
    xc, uc = x[sel][::stride], u[sel][::stride]

    num = manifest.numerics()
    tight = solve(
        config,
        Numerics(
            arc_radius=num.arc_radius,
            tolerance=num.tolerance * TIGHT_FACTOR,
            order=2 * num.order,
            max_refine=num.max_refine + 1,
        ),
    )
    err = _max_rel_err(uc, tight.values(xc, tc), scale)
    if not err <= TIGHT_REL_TOL:
        problems.append(f"t={tc!r}: tight-numerics error {err:.2e} > {TIGHT_REL_TOL:.0e} max|u|")

    fd = crank_nicolson(config, make_grid(config, FD_NODES, t_end=tc, dt=tc / FD_STEPS), tc)
    err = _max_rel_err(uc, fd.interp(tc, xc), scale)
    if not err <= FD_REL_TOL:
        problems.append(f"t={tc!r}: crank_nicolson error {err:.2e} > {FD_REL_TOL:.0e} max|u|")
    return problems


def check_verify(rc: int, report: str) -> list[str]:
    """Problems found in one verify operation's report; empty when it passes."""
    lines = [ln for ln in report.splitlines() if ln.strip()]
    if rc != 0:
        return [f"verify exited {rc}"]
    if not lines:
        return ["empty verification report"]
    return [ln for ln in lines if not ln.startswith("PASS")]
