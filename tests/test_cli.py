import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fokas_heat as fh
from fokas_heat.cli import _csv_text, main, parse_config
from fokas_heat.core import Geometry
from fokas_heat.errors import ConfigValidationError, NoConvergence, ParseError, UnknownKey

ROOT = Path(__file__).resolve().parents[1]
FIG5 = ROOT / "configs" / "fig5.cfg"
SLAB = ROOT / "configs" / "slab_steady.cfg"


def test_parse_fig5_config():
    config, manifest = parse_config(FIG5.read_text())
    assert config.geometry == Geometry.TWO_SEMI_INFINITE
    assert config.sigmas == (0.02, 0.06)
    assert config.far_field == (0.0, 0.0)
    left = config.initial_data[0]
    assert left.terms[0].power == 2 and left.terms[0].rate == 625.0
    right = config.initial_data[1]
    assert right.terms[0].rate == -900.0
    assert manifest.t_values == (0.005, 0.01, 0.02)
    assert manifest.x_grid.size == 400


def test_parse_empty_file():
    with pytest.raises(ParseError):
        parse_config("")


def test_parse_unknown_key_has_line_number():
    with pytest.raises(UnknownKey) as err:
        parse_config("geometry = two_finite\nnonsense = 3\n")
    assert err.value.line_no == 2


def test_robin_end_surfaces_core_violation():
    text = (
        "geometry = two_finite\nsigma_left = 1\nsigma_right = 2\na = 1\nb = 1\n"
        "bc.left = neumann_zero\nbc.right = dirichlet: 1\n"
    )
    with pytest.raises(ConfigValidationError) as err:
        parse_config(text)
    assert any(v.code == "UnsupportedBoundaryOperator" for v in err.value.violations)


def test_parse_expr_initial():
    text = (
        "geometry = three_finite\nsigma_left = 1\nsigma_middle = 0.7\nsigma_right = 1.4\n"
        "a = 1\nb = 1\nc = 2\nleft.initial = expr: sin(pi*x/2)**2 * (1+x)\n"
    )
    config, _ = parse_config(text)
    xs = np.array([-0.5, -0.25])
    np.testing.assert_allclose(
        config.initial_data[0](xs), np.sin(np.pi * xs / 2) ** 2 * (1 + xs), rtol=1e-12
    )


@pytest.mark.parametrize(
    "expr",
    ["x.__class__", "__import__('os')", "(lambda: 1)()", "x[0]", "y + 1"],
    ids=["attribute", "import", "lambda", "subscript", "unknown-name"],
)
def test_expr_outside_whitelist_is_config_error(tmp_path, capsys, expr):
    cfg = tmp_path / "bad_expr.cfg"
    cfg.write_text(
        "geometry = three_finite\nsigma_left = 1\nsigma_middle = 0.7\nsigma_right = 1.4\n"
        f"a = 1\nb = 1\nc = 2\nleft.initial = expr: {expr}\n"
    )
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ParseError"
    assert record["detail"].startswith("line 8: ")


def test_parse_grid_forms():
    base = "geometry = two_finite\nsigma_left = 1\nsigma_right = 2\na = 1\nb = 1\n"
    _, m1 = parse_config(base + "grid.x = -1:1:5\ngrid.t = 0.1,0.2\n")
    assert m1.x_grid.size == 5 and m1.t_values == (0.1, 0.2)
    with pytest.raises(ParseError):
        parse_config(base + "grid.t = 0,-1\n")


def test_steady_command_output(capsys):
    rc = main(["steady", "--config", str(SLAB)])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    left, right = out.split("|")
    intercept, slope = (float(p.split("*")[0]) for p in (left.split("+")[0], left.split("+")[1]))
    assert intercept == pytest.approx(0.8) and slope == pytest.approx(0.8)
    slope_r = float(right.split("+")[1].split("*")[0])
    assert slope_r == pytest.approx(0.2)


def test_solve_writes_deterministic_csv(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["solve", "--config", str(SLAB), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(SLAB), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "x,t,u,layer"
    cells = lines[1].split(",")
    assert len(cells) == 4 and cells[3] in ("0", "1")
    # continuity of u across the interface row (x = 0 belongs to the left layer)
    rows = [ln.split(",") for ln in lines[1:]]
    by_x = {float(r[0]): float(r[2]) for r in rows}
    assert 0.0 in by_x


def test_solve_respects_thread_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("FOKAS_HEAT_THREADS", "1")
    out = tmp_path / "c.csv"
    assert main(["solve", "--config", str(SLAB), "--out", str(out)]) == 0
    assert out.exists()


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("geometry = two_finite\nsigma_left = -1\nsigma_right = 2\na = 1\nb = 1\n")
    rc = main(["solve", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigValidationError"


def test_numerical_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "tiny_t.cfg"
    cfg.write_text(
        "geometry = two_semi_infinite\nsigma_left = 0.02\nsigma_right = 0.06\n"
        "grid.t = 1e-9\ngrid.x = -0.01:0.01:5\n"
    )
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "TimeTooSmall"


def test_no_convergence_reports_last_difference(tmp_path, capsys):
    cfg = tmp_path / "fig5_tight.cfg"
    cfg.write_text(FIG5.read_text() + "contour.tolerance = 1e-18\n")
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "NoConvergence"
    diff, tol = re.search(r"last difference (\S+) vs tolerance (\S+)$", record["detail"]).groups()
    assert float(tol) == 1e-18
    assert float(diff) > 1e-18
    config, manifest = parse_config(cfg.read_text())
    with pytest.raises(NoConvergence) as err:
        fh.solve(config, manifest.numerics()).values(manifest.x_grid, manifest.t_values[0])
    assert err.value.tolerance == 1e-18
    assert err.value.last_diff > err.value.tolerance


@pytest.mark.parametrize(
    "key, value",
    [("grid.t", "inf"), ("grid.t", "nan"), ("grid.x", "-1,nan,0.5")],
)
def test_nonfinite_grid_is_config_error(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad_grid.cfg"
    cfg.write_text(
        "geometry = two_finite\nsigma_left = 1\nsigma_right = 2\na = 1\nb = 1\n"
        f"{key} = {value}\n"
    )
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ParseError"
    assert record["detail"].startswith(f"line 6: {key}:")


def test_verify_exit_status_reflects_checks(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(
        "geometry = two_finite\nsigma_left = 1\nsigma_right = 2\na = 1\nb = 1\n"
        "bc.left = dirichlet: 0\nbc.right = dirichlet: 1\ngrid.t = 0.1\n"
    )
    out = tmp_path / "report.txt"
    rc = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    report = out.read_text()
    assert "PASS" in report and "FAIL" not in report


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fokas_heat.cli", "steady", "--config", str(SLAB)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert "0.8" in proc.stdout


def test_fig5_csv_interface_physics(tmp_path):
    """The shipped config reproduces continuous temperature with the
    diffusivity-ratio slope jump at the interface, straight from the CSV."""
    out = tmp_path / "fig5.csv"
    assert main(["solve", "--config", str(FIG5), "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
    data = {}
    for x, t, u, layer in rows:
        data.setdefault(float(t), []).append((float(x), float(u)))
    for t, pts in data.items():
        pts.sort()
        xs = np.array([p[0] for p in pts])
        us = np.array([p[1] for p in pts])
        left = xs < 0
        right = xs > 0
        # one-sided cubic fits extrapolated to the interface: values agree
        # (continuity) while the slopes jump by sigma_R^2/sigma_L^2 = 9
        pl = np.polynomial.Polynomial.fit(xs[left][-6:], us[left][-6:], 3)
        pr = np.polynomial.Polynomial.fit(xs[right][:6], us[right][:6], 3)
        scale = max(abs(pl(0.0)), np.max(np.abs(us)))
        assert abs(pl(0.0) - pr(0.0)) < 1e-3 * scale
        assert pl.deriv()(0.0) / pr.deriv()(0.0) == pytest.approx(9.0, rel=0.05)


def test_contour_keys_honored():
    text = (
        "geometry = two_finite\nsigma_left = 1\nsigma_right = 2\na = 1\nb = 1\n"
        "contour.radius = 0.7\ncontour.tolerance = 1e-9\ngrid.t = 0.2\n"
    )
    _, manifest = parse_config(text)
    assert manifest.arc_radius == 0.7
    assert manifest.tolerance == 1e-9
    num = manifest.numerics()
    assert num.arc_radius == 0.7 and num.tolerance == 1e-9


def test_steady_unsupported_geometry(tmp_path, capsys):
    cfg = tmp_path / "three.cfg"
    cfg.write_text(
        "geometry = three_finite\nsigma_left = 1\nsigma_middle = 1\nsigma_right = 1\n"
        "a = 1\nb = 1\nc = 2\n"
    )
    rc = main(["steady", "--config", str(cfg)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ParseError"


def _csv_by_rows(xs, ts, results, layers):
    """The CSV as a plain per-row loop formats it: the reference for _csv_text."""
    lines = ["x,t,u,layer"]
    for t, us in zip(ts, results):
        for x, u, layer in zip(xs, us, layers):
            lines.append(f"{x:.17g},{t:.17g},{u:.17g},{layer}")
    return "\n".join(lines) + "\n"


def test_csv_text_matches_row_loop():
    config = fh.three_finite(1.0, 2.0, 3.0, 1.0, 1.5, 2.5)
    # both ends, both interfaces (ties go left), signed zero, subnormal x
    xs = np.array([-1.0, -0.5, -0.0, 0.0, 5e-324, 1.0 / 3.0, 1.5, 1.5 + 2e-16, 2.5])
    layers = config.layer_indices(xs)
    ts = (1e-300, 0.1, 7.0 / 3.0)
    results = [
        np.array([-0.0, 0.0, 1e308, -1.7976931348623157e308, 5e-324, -2.2e-308, np.pi, 1e-17, -1.0]),
        np.linspace(-1.0, 1.0, xs.size) ** 3,
        np.full(xs.size, 1.0 / 3.0),
    ]
    assert layers.tolist() == [0, 0, 0, 0, 1, 1, 1, 2, 2]
    assert _csv_text(xs, ts, results, layers) == _csv_by_rows(xs, ts, results, layers)
