"""Traced operations: spans around calls into each module, taken from outside.

Nothing in the package is patched or written.  A traced operation first runs
the real CLI command, single-threaded, as the root span.  A sampling thread
watches the stacks meanwhile; the part of the command after the last
evaluation or oracle frame it saw is the ``cli.write`` span (formatting and
writing the output).  The operation's work is then re-run through the
library's public functions, and what each cold ``SolutionField`` build did
is replayed on the nodes it cached (``SolutionField._cache`` and ``.plans``
are read, never changed).  A re-run or replayed span names the span whose
work it stands for as its parent, so a span's self time (its duration minus
its children's) is what that layer did beyond the replayed calls.
"""

from __future__ import annotations

import contextlib
import io
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import fokas_heat
from fokas_heat import Geometry, _field, cli, oracles
from fokas_heat._accel import phase_sum
from fokas_heat.contours import build_contour, real_line_contour
from fokas_heat.oracles import (
    classical_series_two_finite,
    crank_nicolson,
    make_grid,
    run_verification,
)
from fokas_heat.transforms import ENTIRE, TransformFn, transform_of

from perfbench.gate import domain_x

MODULES = ("cli", "core", "solver", "transforms", "contours", "field", "accel", "oracles")
# bytes of the complex128 phase matrix exp(i k x) the kernel forms per (x, k)
PHASE_BYTES = 16


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Spans and counts kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        # counts[op][name]; ``field.nodes_max`` holds a maximum, the rest sums
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        span = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        try:
            yield len(self.spans) - 1
        finally:
            span.end = time.perf_counter()

    def count(self, name: str, value: float):
        self.counts[self.op][name] += value

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]


class _LibrarySampler(threading.Thread):
    """Samples every other thread's stack each ``period`` seconds and keeps
    the last time a frame of the evaluation or oracle modules was on one."""

    FILES = frozenset((_field.__file__, oracles.__file__))

    def __init__(self, period: float = 1e-3):
        super().__init__(daemon=True)
        self.period = period
        self.last: float | None = None
        self._stop_event = threading.Event()

    def run(self):
        me = threading.get_ident()
        while not self._stop_event.wait(self.period):
            now = time.perf_counter()
            for ident, frame in sys._current_frames().items():
                while ident != me and frame is not None:
                    if frame.f_code.co_filename in self.FILES:
                        self.last = now
                        break
                    frame = frame.f_back

    def stop(self):
        self._stop_event.set()
        self.join(timeout=10)
        if self.is_alive():
            raise RuntimeError("stack sampler did not stop")


def _cli_span(tr: Tracer, name: str, argv: list[str]) -> tuple[int, int]:
    """Run the CLI as a root span with its observed ``cli.write`` tail."""
    sampler = _LibrarySampler()
    sampler.start()
    try:
        with tr.span(name) as root, contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    finally:
        sampler.stop()
    end = tr.spans[root].end
    start = end if sampler.last is None else min(sampler.last, end)
    tr.spans.append(Span("cli.write", start, end, root, tr.op))
    return rc, len(tr.spans) - 1


def _contour(plan, num, half, t, x_scale, order):
    if half == "real":
        return real_line_contour(
            plan.sigma,
            t,
            x_scale,
            order=order,
            max_radius=num.radius_cap,
            feature_scale=plan.feature_scale,
        )
    min_radius = 0.0
    if plan.tail_gap is not None:
        min_radius = np.log(1e14) / (np.sin(num.theta) * plan.tail_gap)
    return build_contour(
        half,
        plan.sigma,
        t,
        x_scale,
        avoid_origin=plan.needs_arc if num.avoid_origin is None else num.avoid_origin,
        r=num.arc_radius,
        theta=num.theta,
        order=order,
        max_radius=num.radius_cap,
        feature_scale=plan.feature_scale,
        min_radius=min_radius,
    )


def _closure_transforms(fn) -> list[TransformFn]:
    """Entire transforms a nodal solver captured (global-relation solves
    evaluate each of them at +k and -k)."""
    found = {}

    def walk(value, depth):
        if isinstance(value, TransformFn) and value.validity == ENTIRE:
            found[id(value)] = value
        elif isinstance(value, (tuple, list)) and depth < 2:
            for item in value:
                walk(item, depth + 1)

    for cell in fn.__closure__ or ():
        walk(cell.cell_contents, 0)
    return list(found.values())


def _replay_build(tr: Tracer, parent: int, sol, key):
    """Replay the contour, transform and nodal-solve work of one cold
    (layer, t) build: every quadrature order from ``Numerics.order`` up to
    the one whose nodes were cached."""
    idx, t, span = key
    plan = sol.plans[idx]
    num = sol.numerics
    cached = [k for k, _, _ in sol._cache[key]]
    x_scale = plan.x_scale_for(span)
    order = num.order
    for _ in range(num.max_refine + 2):
        with tr.span("contours.build", parent):
            contours = {
                half: _contour(plan, num, half, t, x_scale, order)
                for half in sorted(plan.contour_halves())
            }
        tr.count("contours.panels", sum(len(c.pieces) for c in contours.values()))
        for half, contour in contours.items():
            k = contour.nodes
            for term in plan.terms:
                if term.contour == half and term.kind == "initial":
                    with tr.span("transforms.eval", parent):
                        term.transform.eval_scaled(term.arg_scale * k)
                    tr.count("transforms.evals", k.size)
            if plan.solve_fn is not None and half in plan.solve_halves:
                with tr.span("solver.nodal_solve", parent) as solve_span:
                    plan.solve_fn(k, half, t)
                tr.count("solver.nodal_solves", k.size)
                for transform in _closure_transforms(plan.solve_fn):
                    with tr.span("transforms.eval", solve_span):
                        transform.eval_scaled(k)
                        transform.eval_scaled(-k)
                    tr.count("transforms.evals", 2 * k.size)
        if all(any(np.array_equal(c.nodes, kc) for kc in cached) for c in contours.values()):
            return
        order *= 2
    raise RuntimeError(f"replay never reached the cached nodes of layer {idx} at t={t!r}")


def _replay_eval(tr: Tracer, parent: int, sol, keys, xs, idxs):
    for key in keys:
        xl = xs[idxs == key[0]]
        nodal = sol._cache[key]
        with tr.span("accel.phase_sum", parent):
            for k, c, shift in nodal:
                phase_sum(xl + shift if shift else xl, k, c)
        n = sum(xl.size * k.size for k, _, _ in nodal)
        tr.count("accel.exp_count", n)
        tr.count("accel.bytes_computed", PHASE_BYTES * n)
        nodes = sum({id(k): k.size for k, _, _ in nodal}.values())
        tr.count("field.nodes_total", nodes)
        counts = tr.counts[tr.op]
        counts["field.nodes_max"] = max(counts["field.nodes_max"], nodes)
    with tr.span("core.layer_index", parent):
        [sol.config.layer_index(float(x)) for x in xs]
    tr.count("core.layer_index_calls", xs.size)


def traced_solve(tr: Tracer, text: str, cfg_path: str, out_path: str) -> int:
    """``fokas-heat solve`` as the root span, then its work re-run and replayed."""
    rc, write = _cli_span(tr, "cli.solve", ["solve", "--config", cfg_path, "--out", out_path])
    with tr.span("cli.parse"):
        config, manifest = cli.parse_config(text)
    with tr.span("solver.plan") as plan_span:
        sol = fokas_heat.solve(config, manifest.numerics())
    with tr.span("transforms.build", plan_span):
        for src, layer in zip(config.initial_data, config.layers):
            transform_of(src, (layer.x_lo, layer.x_hi))
    xs = domain_x(config, manifest)
    idxs = np.array([config.layer_index(float(x)) for x in xs])
    for t in manifest.t_values:
        before = set(sol._cache)
        with tr.span("field.cold") as cold:
            sol.values(xs, t)
        keys = [key for key in sol._cache if key not in before]
        for key in keys:
            _replay_build(tr, cold, sol, key)
        _replay_eval(tr, cold, sol, keys, xs, idxs)
    # the CSV's per-row layer column
    with tr.span("core.layer_index", write):
        for _ in manifest.t_values:
            [config.layer_index(float(x)) for x in xs]
    tr.count("core.layer_index_calls", xs.size * len(manifest.t_values))
    tr.count("cli.rows", xs.size * len(manifest.t_values))
    tr.count("field.cache_entries", len(sol._cache))
    # second evaluation at each time: a cache hit, beside the operation
    for t in manifest.t_values:
        with tr.span("field.warm"):
            sol.values(xs, t)
    return rc


def traced_verify(tr: Tracer, text: str, cfg_path: str, out_path: str) -> int:
    """``fokas-heat verify`` as the root span, then its oracles re-run."""
    rc, _ = _cli_span(tr, "cli.verify", ["verify", "--config", cfg_path, "--out", out_path])
    with tr.span("cli.parse"):
        config, manifest = cli.parse_config(text)
    t_check = min(manifest.t_values)
    with tr.span("oracles.verify") as verify:
        checks = run_verification(config, t_check=t_check)
    tr.count("oracles.checks", len(checks))
    tr.count("oracles.checks_failed", sum(not c.passed for c in checks))
    tr.count("cli.rows", len(checks))
    # the oracle calls run_verification makes for this geometry
    if config.geometry in (Geometry.TWO_SEMI_INFINITE, Geometry.THREE_INFINITE):
        with tr.span("oracles.cn", verify):
            crank_nicolson(config, make_grid(config, 900, t_end=t_check, dt=t_check / 400), t_check)
    elif config.geometry == Geometry.TWO_FINITE:
        with tr.span("oracles.series", verify):
            series = classical_series_two_finite(config, 50)
            series.values(np.linspace(config.x_min, config.x_max, 6), max(t_check, 0.05))
    return rc


# spans whose summed durations are reported as ``<name>_s``
TIMED = (
    "cli.parse",
    "cli.write",
    "solver.plan",
    "solver.nodal_solve",
    "transforms.build",
    "transforms.eval",
    "contours.build",
    "core.layer_index",
    "field.cold",
    "field.warm",
    "accel.phase_sum",
    "oracles.verify",
    "oracles.cn",
    "oracles.series",
)
COUNTED = (
    "cli.rows",
    "core.layer_index_calls",
    "solver.nodal_solves",
    "transforms.evals",
    "contours.panels",
    "field.nodes_total",
    "field.nodes_max",
    "field.cache_entries",
    "accel.exp_count",
    "accel.bytes_computed",
    "oracles.checks",
    "oracles.checks_failed",
)
ROOTS = ("cli.solve", "cli.verify")


def round_layers(tr: Tracer, ops: list[int]) -> dict[str, float]:
    """Per-layer totals of the operations ``ops`` (one round)."""
    ops = set(ops)
    selfs = tr.self_times()
    out = {f"{name}_s": 0.0 for name in TIMED}
    out.update({f"{m}.self_s": 0.0 for m in MODULES})
    out["trace.serial_wall_s"] = 0.0
    for span, own in zip(tr.spans, selfs):
        if span.op not in ops:
            continue
        d = span.end - span.start
        if span.name in TIMED:
            out[f"{span.name}_s"] += d
        if span.name in ROOTS:
            out["trace.serial_wall_s"] += d
        elif span.name != "field.warm":
            # self time per module over the re-run and replayed work; the
            # CLI root is the operation itself, field.warm a measurement
            # beside it
            out[f"{span.name.split('.')[0]}.self_s"] += own
    out["field.build_s"] = out["field.cold_s"] - out["field.warm_s"]
    for name in COUNTED:
        values = [tr.counts[op].get(name, 0.0) for op in ops]
        out[name] = max(values) if name == "field.nodes_max" else sum(values)
    return out
