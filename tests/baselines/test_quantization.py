"""Tests for 1-bit SGD, TernGrad and QSGD baselines."""

import numpy as np
import pytest

from repro.baselines import OneBitCodec, qsgd, sign_quantize, terngrad
from repro.core import ErrorFeedbackCompressor


def _grads(n=10_000, seed=0, scale=0.05):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) * scale).astype(np.float32)


def _onebit_sgd():
    """1-bit SGD: the sign quantiser under the one error-feedback loop."""
    return ErrorFeedbackCompressor(OneBitCodec())


class TestOneBitSGD:
    def test_output_is_two_valued(self):
        q = _onebit_sgd()
        result = q.compress(_grads())
        assert len(np.unique(result.values)) <= 2

    def test_compression_ratio_near_32(self):
        q = _onebit_sgd()
        result = q.compress(_grads(100_000))
        assert result.compression_ratio == pytest.approx(32.0, rel=0.01)

    def test_error_feedback_accumulates(self):
        q = _onebit_sgd()
        grads = _grads(1000, seed=1)
        first = q.compress(grads)
        residual_after_first = grads - first.values
        second = q.compress(grads)
        # Second call quantizes grads + residual, not grads alone.
        assert not np.array_equal(first.values, second.values) or np.any(
            residual_after_first != 0
        )

    def test_feedback_preserves_gradient_mass(self):
        # Sum of transmitted values over many rounds approaches the sum
        # of true gradients (nothing is lost, only delayed).
        q = _onebit_sgd()
        rng = np.random.default_rng(2)
        total_true = np.zeros(500, dtype=np.float64)
        total_sent = np.zeros(500, dtype=np.float64)
        for _ in range(200):
            g = (rng.standard_normal(500) * 0.01).astype(np.float32)
            total_true += g
            total_sent += q.compress(g).values
        drift = np.abs(total_true - total_sent).max()
        # Remaining drift is bounded by the current residual magnitude.
        assert drift < 0.1

    def test_reset_clears_state(self):
        q = _onebit_sgd()
        g = _grads(100, seed=3)
        a = q.compress(g).values
        q.reset()
        b = q.compress(g).values
        np.testing.assert_array_equal(a, b)

    def test_first_round_is_the_stateless_kernel(self):
        grads = _grads(1000, seed=5)
        first = _onebit_sgd().compress(grads)
        kernel = sign_quantize(grads)
        np.testing.assert_array_equal(first.values, kernel.values)
        # 1 bit per value + two float32 scales, rounded up to bytes.
        assert first.payload_nbytes == kernel.payload_nbytes == 125 + 8

    def test_all_positive_input(self):
        q = _onebit_sgd()
        result = q.compress(np.full(64, 0.5, dtype=np.float32))
        np.testing.assert_allclose(result.values, 0.5, atol=1e-6)


class TestTernGrad:
    def test_three_levels(self):
        rng = np.random.default_rng(0)
        result = terngrad(_grads(), rng)
        unique = np.unique(result.values)
        assert len(unique) <= 3
        assert 0.0 in unique

    def test_unbiased_in_expectation(self):
        grads = _grads(2000, seed=1)
        rng = np.random.default_rng(2)
        mean = np.zeros_like(grads, dtype=np.float64)
        rounds = 300
        for _ in range(rounds):
            mean += terngrad(grads, rng).values
        mean /= rounds
        # E[quantized] == gradient (stochastic scaling is unbiased).
        assert np.abs(mean - grads).mean() < 0.01

    def test_zero_vector(self):
        rng = np.random.default_rng(0)
        result = terngrad(np.zeros(100, dtype=np.float32), rng)
        assert np.all(result.values == 0)

    def test_ratio_near_16(self):
        rng = np.random.default_rng(0)
        result = terngrad(_grads(100_000), rng)
        assert result.compression_ratio == pytest.approx(16.0, rel=0.01)


class TestQSGD:
    def test_levels_respected(self):
        grads = _grads(5000, seed=4)
        rng = np.random.default_rng(5)
        result = qsgd(grads, rng, bits=2)
        norm = np.linalg.norm(grads)
        levels = np.unique(np.round(np.abs(result.values) / norm * 3, 6))
        assert len(levels) <= 4  # 0..3 over 3 levels

    def test_unbiased_in_expectation(self):
        grads = _grads(1000, seed=6)
        rng = np.random.default_rng(7)
        mean = np.zeros_like(grads, dtype=np.float64)
        rounds = 300
        for _ in range(rounds):
            mean += qsgd(grads, rng, bits=4).values
        mean /= rounds
        assert np.abs(mean - grads).mean() < 0.005

    def test_more_bits_less_error(self):
        grads = _grads(20_000, seed=8)
        rng = np.random.default_rng(9)
        err2 = np.abs(qsgd(grads, rng, bits=2).values - grads).mean()
        err8 = np.abs(qsgd(grads, rng, bits=8).values - grads).mean()
        assert err8 < err2

    def test_ratio_formula(self):
        rng = np.random.default_rng(0)
        result = qsgd(_grads(100_000), rng, bits=4)
        assert result.compression_ratio == pytest.approx(32 / 5, rel=0.01)

    def test_invalid_bits(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            qsgd(_grads(10), rng, bits=0)

    def test_zero_vector(self):
        rng = np.random.default_rng(0)
        result = qsgd(np.zeros(10, dtype=np.float32), rng)
        assert np.all(result.values == 0)
