"""Deep Gradient Compression tests: top-k under the one error-feedback loop."""

import numpy as np
import pytest

from repro.baselines import top_k
from repro.core import ErrorFeedbackCompressor, get_codec


def _dgc(sparsity):
    """DGC: top-k selection with local accumulation of the dropped mass."""
    return ErrorFeedbackCompressor(get_codec("sparsification"), sparsity=sparsity)


def _grads(n=10_000, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) * 0.05).astype(np.float32)


def test_density_matches_sparsity():
    dgc = _dgc(sparsity=0.99)
    result = dgc.compress(_grads(100_000))
    density = np.count_nonzero(result.values) / result.values.size
    assert density == pytest.approx(0.01, rel=0.2)


def test_transmits_largest_magnitudes():
    dgc = _dgc(sparsity=0.9)
    grads = _grads(1000, seed=1)
    result = dgc.compress(grads)
    sent = result.values != 0
    assert sent.any() and (~sent).any()
    assert np.min(np.abs(grads[sent])) >= np.max(np.abs(grads[~sent])) - 1e-6


def test_dropped_mass_accumulates():
    dgc = _dgc(sparsity=0.99)
    grads = _grads(1000, seed=2)
    result = dgc.compress(grads)
    # Every coordinate not sent is held back locally, exactly.
    assert np.count_nonzero(dgc.residual) == 1000 - np.count_nonzero(result.values)
    np.testing.assert_array_equal(dgc.residual + result.values, grads)


def test_nothing_lost_over_rounds():
    dgc = _dgc(sparsity=0.95)
    rng = np.random.default_rng(3)
    total_true = np.zeros(500, dtype=np.float64)
    total_sent = np.zeros(500, dtype=np.float64)
    for _ in range(300):
        g = (rng.standard_normal(500) * 0.01).astype(np.float32)
        total_true += g
        total_sent += dgc.compress(g).values
    # All gradient mass eventually transmits (delayed, not dropped):
    # remaining gap equals the currently accumulated residual.
    drift = np.abs(total_true - total_sent)
    assert drift.mean() < 0.05


def test_zero_sparsity_sends_everything():
    dgc = _dgc(sparsity=0.0)
    grads = _grads(100, seed=4)
    result = dgc.compress(grads)
    # index (32b) + value (32b) per transmitted coordinate.
    assert result.payload_nbytes == 100 * 8
    np.testing.assert_array_equal(result.values, grads)
    assert np.count_nonzero(dgc.residual) == 0


def test_compression_ratio():
    dgc = _dgc(sparsity=0.99)
    result = dgc.compress(_grads(100_000))
    # 1% of coords at 64 bits each vs 32 bits dense -> ~50x.
    assert result.compression_ratio == pytest.approx(50, rel=0.25)
    assert result.payload_nbytes == np.count_nonzero(result.values) * 8


def test_invalid_sparsity():
    with pytest.raises(ValueError):
        top_k(_grads(10), 1.0)
    with pytest.raises(ValueError):
        _dgc(sparsity=-0.1).compress(_grads(10))


def test_reset():
    dgc = _dgc(sparsity=0.9)
    dgc.compress(_grads(100))
    dgc.reset()
    assert dgc.residual is None
