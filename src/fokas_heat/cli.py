"""Configuration-driven command line: solve, verify, and steady-state export.

Config files are flat ``key = value`` lines with ``#`` comments and dotted
keys for per-layer data.  Keys:

    geometry            two_semi_infinite | two_finite | three_infinite | three_finite
    sigma_left, sigma_middle, sigma_right
    a, b, c             extents (geometry-dependent, canonical coordinates)
    gamma_left, gamma_right        far-field temperatures (two_semi_infinite)
    left.initial, middle.initial, right.initial
                        "exp_poly: C [x^M] [e^{Rx}] + ..."  (closed-form transforms)
                        "const: V" or "expr: <expression of x>" (finite layers; numbers,
                        x, pi, e, sin/cos/tan/exp/sqrt/abs calls, + - * / ** and signs)
    bc.left, bc.right   "dirichlet: V" (two_finite) | "neumann_zero" (three_finite)
    contour.radius, contour.tolerance
    grid.x              "min:max:count" or comma list
    grid.t              "min:max:count" or comma list (strictly positive)

``solve`` writes CSV rows ``x,t,u,layer`` (17 significant digits, stable
ordering); ``verify`` runs the oracle suite and writes a pass/fail report,
exiting 0 only if every check passes; ``steady`` prints the long-time
profile.  Exit codes: 0 success, 1 verification failure, 2 configuration
error, 3 numerical failure.  ``FOKAS_HEAT_THREADS`` caps the number of
worker threads used to evaluate distinct output times.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import solve as solve_config
from ._field import Numerics
from .core import Geometry, three_finite, three_infinite, two_semi_infinite
from .errors import (
    ConfigValidationError,
    FokasHeatError,
    NoConvergence,
    ParseError,
    TimeTooSmall,
    UnknownKey,
)
from .oracles import run_verification
from .solver_finite import steady_state
from .transforms import ExpPolynomial, ExpPolyTerm, SampledInterval

_KNOWN_KEYS = {
    "geometry",
    "sigma_left",
    "sigma_middle",
    "sigma_right",
    "a",
    "b",
    "c",
    "gamma_left",
    "gamma_right",
    "left.initial",
    "middle.initial",
    "right.initial",
    "bc.left",
    "bc.right",
    "contour.radius",
    "contour.tolerance",
    "grid.x",
    "grid.t",
}

# names an ``expr:`` may use besides x: one-argument functions and constants
_EXPR_NAMES = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "pi": np.pi,
    "e": np.e,
}
_EXPR_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


@dataclass
class RunManifest:
    """Everything the front end needs besides the problem itself."""

    command: str = "solve"
    x_grid: np.ndarray = field(default_factory=lambda: np.linspace(0, 1, 2))
    t_values: tuple[float, ...] = (0.1,)
    arc_radius: Optional[float] = None  # None: the contours' largest admissible arc
    tolerance: float = 1e-10
    out_path: str = ""

    def numerics(self) -> Numerics:
        return Numerics(arc_radius=self.arc_radius, tolerance=self.tolerance)


def _parse_float(text, line_no, key):
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{key}: expected a number, got {text!r}", line_no)


def _parse_exp_poly_term(token, line_no):
    coef = 1.0
    power = 0
    rate = 0.0
    seen_any = False
    for piece in token.split():
        if piece == "x":
            power = 1
            seen_any = True
        elif piece.startswith("x^"):
            power = int(piece[2:])
            seen_any = True
        elif re.fullmatch(r"e\^\{[^}]*x\}", piece):
            rate = _parse_float(piece[3:-2], line_no, "exp_poly rate")
            seen_any = True
        else:
            coef = _parse_float(piece, line_no, "exp_poly coefficient")
            seen_any = True
    if not seen_any:
        raise ParseError("empty exp_poly term", line_no)
    return ExpPolyTerm(coef, power, rate)


def _check_expr(node, line_no):
    """Raise ParseError unless ``node`` holds only real numbers, ``x``, the
    ``_EXPR_NAMES`` constants, one-argument calls of its functions,
    ``+ - * / **`` and unary +/-."""
    children = ()
    if isinstance(node, ast.Constant):
        ok = type(node.value) in (int, float)
    elif isinstance(node, ast.Name):
        ok = node.id == "x" or (node.id in _EXPR_NAMES and not callable(_EXPR_NAMES[node.id]))
    elif isinstance(node, ast.Call):
        func = node.func
        ok = (
            isinstance(func, ast.Name)
            and callable(_EXPR_NAMES.get(func.id))
            and len(node.args) == 1
            and not node.keywords
        )
        children = node.args
    elif isinstance(node, ast.BinOp):
        ok = isinstance(node.op, _EXPR_BINOPS)
        children = (node.left, node.right)
    elif isinstance(node, ast.UnaryOp):
        ok = isinstance(node.op, (ast.UAdd, ast.USub))
        children = (node.operand,)
    else:
        ok = False
    if not ok:
        raise ParseError(f"expression may not contain {ast.unparse(node)!r}", line_no)
    for child in children:
        _check_expr(child, line_no)


def _parse_initial(value, line_no):
    """Parse one ``*.initial`` value into (kind, payload)."""
    if ":" not in value:
        raise ParseError(f"initial data needs 'exp_poly:', 'const:' or 'expr:', got {value!r}", line_no)
    kind, body = value.split(":", 1)
    kind = kind.strip()
    body = body.strip()
    if kind == "exp_poly":
        terms = tuple(_parse_exp_poly_term(tok, line_no) for tok in re.split(r"\s\+\s", body))
        return ("exp_poly", terms)
    if kind == "const":
        return ("const", _parse_float(body, line_no, "const"))
    if kind == "expr":
        try:
            tree = ast.parse(body, mode="eval")
        except SyntaxError as exc:
            raise ParseError(f"bad expression: {exc}", line_no)
        _check_expr(tree.body, line_no)
        compiled = compile(tree, "<initial>", "eval")

        def profile(x, _c=compiled):
            return eval(_c, {"__builtins__": {}}, dict(_EXPR_NAMES, x=np.asarray(x)))

        return ("expr", profile)
    raise ParseError(f"unknown initial-data kind {kind!r}", line_no)


def _parse_grid(value, line_no, key):
    value = value.strip()
    if ":" in value:
        parts = value.split(":")
        if len(parts) != 3:
            raise ParseError(f"{key}: expected min:max:count", line_no)
        lo = _parse_float(parts[0], line_no, key)
        hi = _parse_float(parts[1], line_no, key)
        try:
            n = int(parts[2])
        except ValueError:
            raise ParseError(f"{key}: count must be an integer", line_no)
        if n < 1:
            raise ParseError(f"{key}: count must be positive", line_no)
        grid = np.linspace(lo, hi, n)
    else:
        grid = np.array([_parse_float(tok, line_no, key) for tok in value.split(",") if tok.strip()])
    if not np.all(np.isfinite(grid)):
        raise ParseError(f"{key}: values must be finite, got {value!r}", line_no)
    return grid


def _finite_source(parsed, lo, hi):
    kind, payload = parsed
    if kind == "exp_poly":
        growing = all(complex(t.rate).real > 0 for t in payload)
        prof = ExpPolynomial(payload, side="left" if growing else "right", endpoint=hi if growing else lo)
        return SampledInterval(prof, lo, hi)
    if kind == "const":
        v = payload
        return SampledInterval(lambda x, _v=v: np.full(np.shape(x), _v, dtype=float), lo, hi) if v != 0 else None
    return SampledInterval(payload, lo, hi)


def parse_config(text: str):
    """Parse config text into (ProblemConfig, RunManifest).

    Raises ParseError/UnknownKey with 1-based line numbers, or
    ConfigValidationError from the core validator.
    """
    kv: dict[str, tuple[str, int]] = {}
    any_content = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        any_content = True
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise UnknownKey(f"unknown key {key!r}", line_no)
        if key in kv:
            raise ParseError(f"duplicate key {key!r}", line_no)
        kv[key] = (value, line_no)
    if not any_content:
        raise ParseError("empty configuration", 1)

    def take(key, default=None):
        if key in kv:
            return kv.pop(key)
        return (default, 0)

    geom_raw, geom_line = take("geometry")
    if geom_raw is None:
        raise ParseError("missing 'geometry'", 1)
    try:
        geometry = Geometry(geom_raw)
    except ValueError:
        raise ParseError(f"unknown geometry {geom_raw!r}", geom_line)

    def num(key, default=None, required=False):
        raw, line = take(key, default)
        if raw is None:
            if required:
                raise ParseError(f"missing '{key}'", 1)
            return None
        if isinstance(raw, (int, float)):
            return float(raw)
        return _parse_float(raw, line, key)

    def initial(key):
        raw, line = take(key)
        if raw is None:
            return None, line
        return _parse_initial(raw, line), line

    def boundary(key):
        raw, line = take(key)
        if raw is None:
            return None, line
        body = raw.strip()
        if body.startswith("dirichlet"):
            _, _, rest = body.partition(":")
            return ("dirichlet", _parse_float(rest.strip() or "0", line, key)), line
        if body in ("neumann_zero", "neumann: 0", "neumann:0"):
            return ("neumann_zero", 0.0), line
        raise ParseError(f"{key}: expected 'dirichlet: V' or 'neumann_zero', got {raw!r}", line)

    sigL = num("sigma_left", required=True)
    sigM = num("sigma_middle")
    sigR = num("sigma_right", required=True)
    gamL = num("gamma_left", 0.0)
    gamR = num("gamma_right", 0.0)
    a = num("a")
    b = num("b")
    c = num("c")
    left_init, left_line = initial("left.initial")
    mid_init, mid_line = initial("middle.initial")
    right_init, right_line = initial("right.initial")
    bc_left, bcl_line = boundary("bc.left")
    bc_right, bcr_line = boundary("bc.right")

    def halfline(parsed, side, endpoint, line):
        if parsed is None:
            return None
        kind, payload = parsed
        if kind != "exp_poly":
            raise ParseError("semi-infinite layers need exp_poly initial data", line)
        return ExpPolynomial(payload, side=side, endpoint=endpoint)

    if geometry == Geometry.TWO_SEMI_INFINITE:
        config = two_semi_infinite(
            sigL,
            sigR,
            gamma_left=gamL,
            gamma_right=gamR,
            left_initial=halfline(left_init, "left", 0.0, left_line),
            right_initial=halfline(right_init, "right", 0.0, right_line),
        )
    elif geometry == Geometry.TWO_FINITE:
        if a is None or b is None:
            raise ParseError("two_finite needs 'a' and 'b'", 1)
        # non-Dirichlet ends flow through to the core validator, which
        # reports UnsupportedBoundaryOperator with the offending field
        from .core import EndCondition, LayerSpec, ProblemConfig, validate

        def end_of(bc):
            if bc is None or bc[0] == "dirichlet":
                return EndCondition.dirichlet(bc[1] if bc else 0.0)
            return EndCondition.neumann_zero()

        config = validate(
            ProblemConfig(
                Geometry.TWO_FINITE,
                (LayerSpec(sigL, -a, 0.0), LayerSpec(sigR, 0.0, b)),
                (
                    _finite_source(left_init, -a, 0.0) if left_init else None,
                    _finite_source(right_init, 0.0, b) if right_init else None,
                ),
                end_left=end_of(bc_left),
                end_right=end_of(bc_right),
            )
        )
    elif geometry == Geometry.THREE_INFINITE:
        if a is None:
            raise ParseError("three_infinite needs 'a'", 1)
        if sigM is None:
            raise ParseError("three_infinite needs 'sigma_middle'", 1)
        config = three_infinite(
            sigL,
            sigM,
            sigR,
            a,
            left_initial=halfline(left_init, "left", -a, left_line),
            middle_initial=_finite_source(mid_init, -a, a) if mid_init else None,
            right_initial=halfline(right_init, "right", a, right_line),
        )
    else:
        if a is None or b is None or c is None:
            raise ParseError("three_finite needs 'a', 'b' and 'c'", 1)
        if sigM is None:
            raise ParseError("three_finite needs 'sigma_middle'", 1)
        for name, bc, line in (("bc.left", bc_left, bcl_line), ("bc.right", bc_right, bcr_line)):
            if bc is not None and bc[0] != "neumann_zero":
                raise ParseError(f"{name}: three_finite supports insulated ends only", line)
        config = three_finite(
            sigL,
            sigM,
            sigR,
            a,
            b,
            c,
            left_initial=_finite_source(left_init, -a, 0.0) if left_init else None,
            middle_initial=_finite_source(mid_init, 0.0, b) if mid_init else None,
            right_initial=_finite_source(right_init, b, c) if right_init else None,
        )

    xg_raw, xg_line = take("grid.x")
    tg_raw, tg_line = take("grid.t")
    manifest = RunManifest()
    if xg_raw is not None:
        manifest.x_grid = _parse_grid(xg_raw, xg_line, "grid.x")
    else:
        lo = config.x_min if math.isfinite(config.x_min) else -2.0
        hi = config.x_max if math.isfinite(config.x_max) else 2.0
        manifest.x_grid = np.linspace(lo, hi, 201)
    if manifest.x_grid.size == 0:
        raise ParseError("grid.x is empty", xg_line or 1)
    if tg_raw is not None:
        ts = _parse_grid(tg_raw, tg_line, "grid.t")
    else:
        ts = np.array([0.1])
    if ts.size == 0 or np.any(ts <= 0):
        raise ParseError("grid.t must be nonempty with strictly positive times", tg_line or 1)
    manifest.t_values = tuple(float(t) for t in ts)
    r = num("contour.radius")
    if r is not None:
        manifest.arc_radius = r
    tol = num("contour.tolerance")
    if tol is not None:
        manifest.tolerance = tol
    return config, manifest


def _thread_count(n_tasks: int) -> int:
    cap = os.environ.get("FOKAS_HEAT_THREADS", "")
    try:
        cap_n = max(1, int(cap)) if cap else min(4, n_tasks)
    except ValueError:
        cap_n = min(4, n_tasks)
    return max(1, min(cap_n, n_tasks))


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _csv_text(xs, ts, results, layers) -> str:
    """CSV rows ``x,t,u,layer`` for every time in ``ts`` and x in ``xs``,
    formatting each x and each t once."""
    xcol = [_fmt(x) for x in xs.tolist()]
    lcol = layers.tolist()
    lines = ["x,t,u,layer"]
    for t, us in zip(ts, results):
        tcol = f",{_fmt(t)},"
        lines.extend(f"{x}{tcol}{u:.17g},{layer}" for x, u, layer in zip(xcol, us.tolist(), lcol))
    return "\n".join(lines) + "\n"


def _cmd_solve(config, manifest):
    sol = solve_config(config, manifest.numerics())
    grid = manifest.x_grid
    xs = grid[(config.x_min <= grid) & (grid <= config.x_max)]
    if xs.size == 0:
        raise ParseError("grid.x lies entirely outside the domain", 1)

    def profile(t):
        return sol.values(xs, t)

    ts = manifest.t_values
    with ThreadPoolExecutor(max_workers=_thread_count(len(ts))) as pool:
        results = list(pool.map(profile, ts))

    text = _csv_text(xs, ts, results, config.layer_indices(xs))
    if manifest.out_path:
        with open(manifest.out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(config, manifest):
    checks = run_verification(config, t_check=min(manifest.t_values))
    lines = [check.line() for check in checks]
    text = "\n".join(lines) + "\n"
    if manifest.out_path:
        with open(manifest.out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0 if all(c.passed for c in checks) else 1


def _cmd_steady(config, manifest):
    if config.geometry == Geometry.TWO_FINITE:
        st = steady_state(config)
        parts = [f"{_fmt(ic)} + {_fmt(sl)}*x" for sl, ic in zip(st.slopes, st.intercepts)]
        print(" | ".join(parts))
        return 0
    if config.geometry == Geometry.TWO_SEMI_INFINITE:
        gl, gr = config.far_field
        sl, sr = config.sigmas
        print(_fmt((gl * sl + gr * sr) / (sl + sr)))
        return 0
    raise ParseError("steady supports two_finite and two_semi_infinite geometries only")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fokas-heat",
        description="Evaluate composite-media heat conduction via spectral contour integrals",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "evaluate temperatures on a grid, write CSV"),
        ("verify", "run the oracle cross-check suite, write a report"),
        ("steady", "print the long-time profile"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the key = value config file")
        if name != "steady":
            p.add_argument("--out", default="", help="output file (stdout when omitted)")
    args = parser.parse_args(argv)

    def fail(code, kind, exc):
        record = {"error": kind, "detail": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return code

    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        return fail(2, "io", exc)

    try:
        config, manifest = parse_config(text)
        manifest.command = args.command
        manifest.out_path = getattr(args, "out", "")
        if args.command == "solve":
            return _cmd_solve(config, manifest)
        if args.command == "verify":
            return _cmd_verify(config, manifest)
        return _cmd_steady(config, manifest)
    except (ParseError, ConfigValidationError) as exc:
        return fail(2, type(exc).__name__, exc)
    except (TimeTooSmall, NoConvergence) as exc:
        return fail(3, type(exc).__name__, exc)
    except FokasHeatError as exc:
        return fail(3, type(exc).__name__, exc)


if __name__ == "__main__":
    sys.exit(main())
