"""The shipped configs' CSVs against committed reference outputs.

``tests/data/<name>.csv`` holds a committed ``fokas-heat solve --config
configs/<name>.cfg`` output.  A refactor or a speed-up must reproduce every
profile to 1e-12 of that profile's max|u|; regenerate a reference only with
a change that means to move the numbers, and say by how much.
"""

from pathlib import Path

import numpy as np
import pytest

from fokas_heat.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))


def _read(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def test_every_config_has_a_reference():
    assert CONFIGS
    for cfg in CONFIGS:
        assert (ROOT / "tests" / "data" / f"{cfg.stem}.csv").is_file(), cfg.name


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda p: p.stem)
def test_config_matches_reference_csv(cfg, tmp_path):
    out = tmp_path / "u.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    got, ref = _read(out), _read(ROOT / "tests" / "data" / f"{cfg.stem}.csv")
    assert got.shape == ref.shape
    for col in ("x", "t", "layer"):
        assert np.array_equal(got[col], ref[col])
    for t in np.unique(ref["t"]):
        sel = ref["t"] == t
        scale = np.max(np.abs(ref["u"][sel]))
        assert np.max(np.abs(got["u"][sel] - ref["u"][sel])) <= 1e-12 * scale, f"t={t}"
