import numpy as np
import pytest

from fokas_heat._accel import _block_step, _direct, phase_sum


def _nodes(rng, n_k, imag=1.0):
    k = rng.uniform(-30, 30, n_k) + 1j * rng.uniform(-imag, imag, n_k)
    c = rng.standard_normal(n_k) + 1j * rng.standard_normal(n_k)
    return k, c


def test_phase_sum_matches_dense_sum():
    # 4099 nodes make a chunk 127 rows, so 400 x span four chunks
    rng = np.random.default_rng(5)
    n_k = 4099
    x = rng.uniform(-2, 2, 400)
    assert x.size > 3 * (524288 // n_k)
    k, c = _nodes(rng, n_k)
    dense = np.exp(1j * np.outer(x, k)) @ c
    np.testing.assert_allclose(phase_sum(x, k, c), dense, rtol=1e-12)


@pytest.mark.parametrize(
    "lo, hi, n, n_k",
    [
        (-0.1, 0.1, 33, 300),
        (-3.0, 3.0, 209, 1440),
        (-1.0, 2.0, 400, 1440),
        # 100 heads + 100 steps make a chunk 2621 nodes, so 2700 span two
        (-1.0, 2.0, 10_000, 2700),
        (0.7, -0.4, 400, 500),
    ],
)
def test_evenly_spaced_batch_takes_the_factored_path(lo, hi, n, n_k):
    rng = np.random.default_rng(n)
    x = np.linspace(lo, hi, n)
    assert _block_step(x) is not None
    k, c = _nodes(rng, n_k)
    dense = np.concatenate([np.exp(1j * np.outer(xs, k)) @ c for xs in np.array_split(x, 20)])
    np.testing.assert_allclose(phase_sum(x, k, c), dense, rtol=1e-12)


def test_shifted_grid_takes_the_factored_path():
    # the field evaluates shifted pieces at x + shift, which rounds each x
    x = np.linspace(-0.1, 0.1, 397) + 0.37
    assert _block_step(x) is not None


@pytest.mark.parametrize("case", ["nudged", "short"])
def test_other_batches_stay_on_the_direct_loop(case):
    rng = np.random.default_rng(8)
    if case == "nudged":
        x = np.linspace(-1.0, 2.0, 400)
        x[137] += 1e-9
    else:
        x = np.linspace(-1.0, 2.0, 31)
    assert _block_step(x) is None
    k, c = _nodes(rng, 600)
    assert np.array_equal(phase_sum(x, k, c), _direct(x, k, c))


def test_large_imaginary_nodes_stay_finite():
    # |e^{ikx}| = e^{2e4 x} <= 1 on [-1, 0], but the step factor e^{ikqh}
    # would reach e^{1000}: the batch must stay direct
    rng = np.random.default_rng(9)
    x = np.linspace(-1.0, 0.0, 400)
    k = rng.uniform(-50, 50, 300) - 2e4j
    c = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    direct = _direct(x, k, c)
    assert np.all(np.isfinite(direct))
    got = phase_sum(x, k, c)
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, direct)
    # |Im k| b h = 50 is factored: every value finite, and within 1e-12 of
    # the largest, though the smallest (near 1e-300) lose relative digits
    k = rng.uniform(-50, 50, 300) - 1e3j
    direct = _direct(x, k, c)
    got = phase_sum(x, k, c)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_phase_sum_is_deterministic():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, 64)
    k = rng.uniform(-5, 5, 200) + 0.3j
    c = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    a = phase_sum(x, k, c)
    b = phase_sum(x, k, c)
    assert np.array_equal(a, b)
