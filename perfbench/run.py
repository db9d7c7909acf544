#!/usr/bin/env python3
"""End-to-end benchmark of the fokas-heat pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each workload is one closed-loop client issuing one operation at a time in
this process: a generated config solved to CSV by ``fokas-heat solve``, or
checked by ``fokas-heat verify``.  Operations come in rounds, one of each
kind the workload mixes; rounds start until they have taken ``--seconds``
in all.  Every output is then checked by the gate in ``gate.py``, outside
the timed region.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
single-threaded, records spans (``tracing.py``) and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--smoke`` solves ``configs/*.cfg`` once each in this process and prints
the cold and warm evaluation time of each; it is not a scored workload.

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int, trace: bool) -> dict:
    import numpy as np
    import scipy

    import fokas_heat

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = _nproc()
    threads = int(os.environ["FOKAS_HEAT_THREADS"])
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "FOKAS_HEAT_THREADS": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "threads_exceed_nproc": threads > nproc,
        "USING_NUMBA": fokas_heat.USING_NUMBA,
        "seed": seed,
        "trace": trace,
        "git_commit": _git_commit(),
    }


def _setup_seconds(cfg_path: Path) -> float:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), str(SRC), str(cfg_path)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _run_op(op, cfg_path: Path, out_path: Path, tracer=None):
    """Run one operation; return (exit code, output text, error text)."""
    from fokas_heat import cli

    from perfbench import tracing

    cfg_path.write_text(op.text)
    try:
        if tracer is not None:
            fn = tracing.traced_solve if op.command == "solve" else tracing.traced_verify
            rc = fn(tracer, op.text, str(cfg_path), str(out_path))
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([op.command, "--config", str(cfg_path), "--out", str(out_path)])
    except Exception:  # noqa: BLE001 - a raw exception is a failed operation
        return -1, "", traceback.format_exc(limit=3)
    return rc, out_path.read_text() if out_path.exists() else "", ""


def _gate(op, rc: int, output: str) -> list[str]:
    from perfbench import gate

    if op.command == "verify":
        return gate.check_verify(rc, output)
    if rc != 0:
        return [f"solve exited {rc}"]
    try:
        return gate.check_solve(op.text, output)
    except Exception as exc:  # noqa: BLE001 - an unreadable output fails the gate
        return [f"gate raised {type(exc).__name__}: {exc}"]


def _points(op, output: str) -> int:
    """(x, t) values a solve wrote, or the check lines a verify wrote."""
    lines = output.count("\n")
    return max(0, lines - 1) if op.command == "solve" else lines


def run(workload: str, seed: int, seconds: float, trace_on: bool, work: Path):
    """Run the workload; return (result, environment, sample count per metric)."""
    from perfbench import tracing
    from perfbench.workloads import round_ops

    os.environ["FOKAS_HEAT_THREADS"] = "1" if trace_on else os.environ.get(
        "FOKAS_HEAT_THREADS", str(_nproc())
    )
    env = environment(seed, trace_on)
    if env["threads_exceed_nproc"]:
        print(
            f"WARNING: FOKAS_HEAT_THREADS={env['FOKAS_HEAT_THREADS']} exceeds nproc={env['nproc']}",
            file=sys.stderr,
        )

    # set-up probes are spread over the run, between rounds and outside their
    # timing, so that they meet the same host conditions as the rounds
    probes = 0 if trace_on else SETUP_REPEATS
    probe_cfg = work / "setup.cfg"
    probe_cfg.write_text(round_ops(workload, seed, 0)[0].text)
    setups = []

    tracer = tracing.Tracer() if trace_on else None
    rounds = []  # (wall seconds, operation indices, points written)
    done = []  # (op, rc, output file, error) per operation
    measured = 0.0  # seconds spent in rounds
    while not rounds or measured < seconds:
        if len(setups) < probes and measured >= len(setups) * seconds / probes:
            setups.append(_setup_seconds(probe_cfg))
        r0 = time.perf_counter()
        ops, points = [], 0
        for op in round_ops(workload, seed, len(rounds)):
            if tracer is not None:
                tracer.op = len(done)
            out_path = work / f"op{len(done)}.out"
            rc, output, err = _run_op(op, work / f"op{len(done)}.cfg", out_path, tracer)
            ops.append(len(done))
            # the gate reads the output back from disk, so that peak RSS is
            # the program's and not the benchmark's store of past outputs
            done.append((op, rc, out_path, err))
            points += _points(op, output)
        rounds.append((time.perf_counter() - r0, ops, points))
        measured += rounds[-1][0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [_setup_seconds(probe_cfg) for _ in range(probes - len(setups))]

    failed = 0
    for op, rc, out_path, err in done:
        problems = [err] if err else _gate(op, rc, out_path.read_text() if out_path.exists() else "")
        if problems:
            failed += 1
            print(f"FAIL {workload} {op.name}: {'; '.join(problems)}", file=sys.stderr)

    if trace_on:
        per_round = []
        for wall, ops, _ in rounds:
            layers = tracing.round_layers(tracer, ops)
            layers["trace.overhead_s"] = wall - layers["trace.serial_wall_s"]
            per_round.append(layers)
        metrics = {
            name: {"value": statistics.median(r[name] for r in per_round), "unit": _layer_unit(name)}
            for name in sorted(per_round[0])
        }
        samples = {name: len(per_round) for name in metrics}
    else:
        # A shared host changes speed for stretches of tens of seconds, so the
        # median or the fastest round of one run reads whichever state held;
        # the mean over the whole run averages the states and is the steadier.
        walls = [wall for wall, _, _ in rounds]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.fmean(walls),
            "points_per_s": sum(points for _, _, points in rounds) / sum(walls),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - failed / len(done),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        samples = {
            "setup_s": len(setups),
            "wall_s": len(walls),
            "points_per_s": len(walls),
            "peak_rss_mb": 1,
            "ok_frac": len(done),
        }
        print(
            f"round wall_s: fastest {min(walls):.4g}, median {statistics.median(walls):.4g},"
            f" slowest {max(walls):.4g}, n={len(walls)}"
        )
    result = {"correct": failed == 0, "attempted": len(done), "failed": failed, "metrics": metrics}
    return result, env, samples


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith("bytes_computed") else "count"


def smoke():
    """Cold and warm time of each shipped config, in process, one thread."""
    import fokas_heat
    from fokas_heat import cli

    from perfbench.gate import domain_x

    print("| config | cold | warm (cache hit) |")
    print("|---|---|---|")
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        config, manifest = cli.parse_config(path.read_text())
        sol = fokas_heat.solve(config, manifest.numerics())
        xs = domain_x(config, manifest)
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            for t in manifest.t_values:
                sol.values(xs, t)
            times.append(time.perf_counter() - t0)
        print(f"| {path.stem} | {times[0]:.3f} s | {times[1]:.3f} s |")


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="time configs/*.cfg once each")
    args = ap.parse_args(argv)
    if args.smoke:
        smoke()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        result, env, samples = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:16.6g} {m['unit']:6s} n={samples[name]}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # BLAS must be pinned before numpy loads
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (SRC / "fokas_heat" / "__init__.py").is_file():
        print(f"perfbench: no fokas_heat sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[0] = str(ROOT)  # in place of this script's directory
    sys.path.insert(0, str(SRC))
    sys.exit(main())
