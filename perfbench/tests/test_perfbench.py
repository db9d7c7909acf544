"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import fokas_heat  # noqa: E402
from fokas_heat import cli  # noqa: E402

from perfbench import gate, run, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, round_ops  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _op(workload, name, seed=3):
    return next(op for op in round_ops(workload, seed, 0) if op.name == name)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_reproduces_configs(workload):
    assert round_ops(workload, 5, 2) == round_ops(workload, 5, 2)
    assert round_ops(workload, 5, 2) != round_ops(workload, 6, 2)
    assert round_ops(workload, 5, 2) != round_ops(workload, 5, 3)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generated_configs_parse(workload):
    for seed in range(3):
        for index in range(2):
            for op in round_ops(workload, seed, index):
                config, manifest = cli.parse_config(op.text)
                assert config.geometry.value == op.name
                assert manifest.t_values


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric_with_its_unit(trace, section):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_exp_count_matches_cached_nodes(tmp_path):
    op = _op("semi-sweep", "three_infinite")
    cfg = tmp_path / "op.cfg"
    cfg.write_text(op.text)
    tr = tracing.Tracer()
    assert tracing.traced_solve(tr, op.text, str(cfg), str(tmp_path / "op.csv")) == 0

    config, manifest = cli.parse_config(op.text)
    sol = fokas_heat.solve(config, manifest.numerics())
    xs = gate.domain_x(config, manifest)
    for t in manifest.t_values:
        sol.values(xs, t)
    layer = np.array([config.layer_index(float(x)) for x in xs])
    expected = sum(
        np.sum(layer == idx) * k.size for (idx, _, _), nodal in sol._cache.items() for k, _, _ in nodal
    )
    assert expected > 0
    assert tr.counts[0]["accel.exp_count"] == expected
    assert tr.counts[0]["accel.bytes_computed"] == tracing.PHASE_BYTES * expected


def test_gate_catches_perturbed_output(tmp_path):
    op = _op("semi-sweep", "three_infinite")
    rc, csv_text, err = run._run_op(op, tmp_path / "op.cfg", tmp_path / "op.csv")
    assert (rc, err) == (0, "")
    assert gate.check_solve(op.text, csv_text) == []

    # one row per output time, so the time the gate checks is among them
    lines = csv_text.splitlines()
    n_x = (len(lines) - 1) // len(cli.parse_config(op.text)[1].t_values)
    for row in range(5, len(lines), n_x):
        x, t, u, layer = lines[row].split(",")
        lines[row] = ",".join([x, t, repr(float(u) * (1 + 1e-6) + 1e-6), layer])
    assert gate.check_solve(op.text, "\n".join(lines) + "\n")
    assert gate.check_solve(op.text, "\n".join(lines[:-1]) + "\n")
    assert gate.check_verify(0, "PASS  a: ok\nFAIL  b: bad\n") == ["FAIL  b: bad"]
    assert gate.check_verify(1, "PASS  a: ok\n")


def test_traced_csv_matches_untraced(tmp_path):
    op = _op("dense-profile", "three_finite")
    plain = run._run_op(op, tmp_path / "a.cfg", tmp_path / "a.csv")
    traced = run._run_op(op, tmp_path / "b.cfg", tmp_path / "b.csv", tracing.Tracer())
    assert plain[0] == traced[0] == 0
    assert plain[1] == traced[1]


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    tr.spans = [
        tracing.Span("field.cold", 0.0, 10.0, None, 0),
        tracing.Span("accel.phase_sum", 20.0, 26.0, 0, 0),
        tracing.Span("contours.build", 30.0, 31.0, 0, 0),
    ]
    assert tr.self_times() == [3.0, 6.0, 1.0]


def test_missing_sources_exit_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "semi-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
