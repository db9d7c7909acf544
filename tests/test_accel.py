import numpy as np

from fokas_heat._accel import phase_sum


def test_phase_sum_matches_dense_sum():
    # 4099 nodes make a chunk 127 rows, so 400 x span four chunks
    rng = np.random.default_rng(5)
    n_k = 4099
    x = rng.uniform(-2, 2, 400)
    assert x.size > 3 * (524288 // n_k)
    k = rng.uniform(-30, 30, n_k) + 1j * rng.uniform(-1, 1, n_k)
    c = rng.standard_normal(n_k) + 1j * rng.standard_normal(n_k)
    dense = np.exp(1j * np.outer(x, k)) @ c
    np.testing.assert_allclose(phase_sum(x, k, c), dense, rtol=1e-12)


def test_phase_sum_is_deterministic():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, 64)
    k = rng.uniform(-5, 5, 200) + 0.3j
    c = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    a = phase_sum(x, k, c)
    b = phase_sum(x, k, c)
    assert np.array_equal(a, b)
