"""Truncation baseline tests."""

import numpy as np
import pytest

from repro.baselines import (
    PAPER_TRUNCATIONS,
    truncate_lsbs,
    truncation_ratio,
)
from repro.core import gradient_hook, max_abs_error, profile_for


def test_zero_bits_is_identity():
    values = np.array([0.1, -2.5, 3e-8], dtype=np.float32)
    np.testing.assert_array_equal(truncate_lsbs(values, 0), values)


def test_mantissa_truncation_keeps_magnitude():
    values = np.array([0.123456, -0.98765], dtype=np.float32)
    out = truncate_lsbs(values, 16)
    # 16-bit truncation keeps sign, exponent, 7 mantissa bits: coarse
    # but the right ballpark.
    assert np.all(np.abs(out - values) < np.abs(values) * 0.01)
    assert np.sign(out[1]) == -1


def test_24_bit_truncation_perturbs_exponent():
    # Dropping 24 bits eats one exponent bit: values can collapse badly.
    values = np.array([0.9], dtype=np.float32)
    out = truncate_lsbs(values, 24)
    assert abs(out[0] - 0.9) > 0.1  # uncontrolled error, the paper's point


def test_truncation_error_grows_with_bits():
    rng = np.random.default_rng(0)
    values = (rng.standard_normal(10_000) * 0.2).astype(np.float32)
    errors = [max_abs_error(values, truncate_lsbs(values, b)) for b in PAPER_TRUNCATIONS]
    assert errors[0] < errors[1] < errors[2]


def test_ratio_formula():
    assert truncation_ratio(16) == 2.0
    assert truncation_ratio(24) == 4.0
    assert truncation_ratio(0) == 1.0


def test_invalid_bits_rejected():
    with pytest.raises(ValueError):
        truncate_lsbs(np.zeros(2, dtype=np.float32), 32)
    with pytest.raises(ValueError):
        truncation_ratio(-1)


def test_hook_truncates_gradients():
    hook = gradient_hook(profile_for("truncation", bits=16).compress)
    grad = np.array([[0.123456789, -3.3], [1e-9, 7.0]], dtype=np.float32)
    out = hook(0, grad)
    assert out.shape == grad.shape
    np.testing.assert_array_equal(out, truncate_lsbs(grad, 16))


def test_idempotent():
    rng = np.random.default_rng(1)
    values = (rng.standard_normal(1000) * 0.3).astype(np.float32)
    once = truncate_lsbs(values, 22)
    twice = truncate_lsbs(once, 22)
    np.testing.assert_array_equal(once, twice)
