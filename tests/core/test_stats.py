"""Tests for Table III / Fig 14 statistics helpers."""

import numpy as np
import pytest

from repro.core import (
    ErrorBound,
    TAG_BIT8,
    TAG_BIT16,
    TAG_NO_COMPRESS,
    TAG_ZERO,
    bitwidth_distribution,
    compression_ratio,
    max_abs_error,
    roundtrip,
    value_histogram,
)

BOUND = ErrorBound(10)


def test_distribution_fractions_sum_to_one():
    rng = np.random.default_rng(0)
    values = (rng.standard_normal(10_000) * 0.2).astype(np.float32)
    dist = bitwidth_distribution(values, BOUND)
    assert sum(dist.fractions.values()) == pytest.approx(1.0)


def test_distribution_known_composition():
    values = np.array(
        [0.0] * 6 + [0.01] * 2 + [0.5] * 1 + [2.0] * 1, dtype=np.float32
    )
    dist = bitwidth_distribution(values, BOUND)
    assert dist.fraction_of(TAG_ZERO) == pytest.approx(0.6)
    assert dist.fraction_of(TAG_BIT8) == pytest.approx(0.2)
    assert dist.fraction_of(TAG_BIT16) == pytest.approx(0.1)
    assert dist.fraction_of(TAG_NO_COMPRESS) == pytest.approx(0.1)


def test_as_row_uses_table3_labels():
    values = np.zeros(10, dtype=np.float32)
    row = bitwidth_distribution(values, BOUND).as_row
    assert set(row) == {"2-bit", "10-bit", "18-bit", "34-bit"}
    assert row["2-bit"] == pytest.approx(1.0)


def test_average_bits_and_ratio_consistent():
    rng = np.random.default_rng(1)
    values = (rng.standard_normal(5000) * 0.1).astype(np.float32)
    dist = bitwidth_distribution(values, BOUND)
    assert dist.compression_ratio == pytest.approx(
        32.0 / dist.average_bits_per_value
    )


def test_distribution_rejects_empty():
    with pytest.raises(ValueError):
        bitwidth_distribution(np.array([], dtype=np.float32), BOUND)


def test_sharper_bound_never_increases_ratio():
    rng = np.random.default_rng(2)
    values = (rng.standard_normal(20_000) * 0.05).astype(np.float32)
    r10 = compression_ratio(values, ErrorBound(10))
    r8 = compression_ratio(values, ErrorBound(8))
    r6 = compression_ratio(values, ErrorBound(6))
    assert r10 <= r8 <= r6


def test_max_abs_error_roundtrip():
    rng = np.random.default_rng(3)
    values = (rng.standard_normal(5000) * 0.2).astype(np.float32)
    recon = roundtrip(values, BOUND)
    err = max_abs_error(values, recon)
    assert 0.0 < err < BOUND.bound


def test_max_abs_error_ignores_nonfinite():
    a = np.array([np.inf, 0.5], dtype=np.float32)
    b = np.array([np.inf, 0.5], dtype=np.float32)
    assert max_abs_error(a, b) == 0.0


@pytest.mark.parametrize("n", [2, 1 << 16, (1 << 16) + 1, 200_001])
def test_max_abs_error_is_the_float64_formula_block_by_block(n):
    # Sizes straddle the internal block; the result must equal widening
    # both whole arrays to float64 first, bit for bit.
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n).astype(np.float32)
    b = (a + rng.standard_normal(n).astype(np.float32) * 1e-3).astype(np.float32)
    a[n // 2] = np.inf  # skipped, wherever it falls
    finite = np.isfinite(a)
    want = np.max(np.abs(a[finite].astype(np.float64) - b[finite].astype(np.float64)))
    assert max_abs_error(a, b) == want
    assert max_abs_error(a.reshape(1, -1), b.tolist()) == want
    b[0] = np.nan  # a NaN reconstruction of a finite value is not hidden
    assert np.isnan(max_abs_error(a, b))


def test_max_abs_error_shape_mismatch():
    with pytest.raises(ValueError):
        max_abs_error(np.zeros(3), np.zeros(4))


def test_value_histogram_normalized():
    rng = np.random.default_rng(4)
    values = rng.uniform(-1, 1, 10_000)
    freqs, edges = value_histogram(values, bins=51)
    assert freqs.sum() == pytest.approx(1.0)
    assert len(edges) == 52
    assert edges[0] == -1.0 and edges[-1] == 1.0


def test_compression_ratio_rejects_empty():
    # Must agree with bitwidth_distribution: both raise on zero values
    # (compression_ratio used to return a quiet 1.0 here).
    with pytest.raises(ValueError):
        compression_ratio(np.array([], dtype=np.float32), BOUND)


def test_empty_vector_raises_consistently():
    empty = np.array([], dtype=np.float32)
    with pytest.raises(ValueError):
        bitwidth_distribution(empty, BOUND)
    with pytest.raises(ValueError):
        compression_ratio(empty, BOUND)
