"""Bit-level tests of the scalar reference codec (Algorithm 2/3)."""

import math

import numpy as np
import pytest

from repro.core import (
    ErrorBound,
    TAG_BIT8,
    TAG_BIT16,
    TAG_NO_COMPRESS,
    TAG_ZERO,
)
from .reference_codec import (
    bits_to_float,
    compress_value,
    decompress_value,
    float_to_bits,
    roundtrip_value,
)

BOUND = ErrorBound(10)


def test_float_bits_roundtrip():
    # All values here are exactly representable in float32.
    for value in (0.0, -0.0, 1.0, -1.5, 2.0**-15, 0.125, 2.0**30):
        assert bits_to_float(float_to_bits(value)) == value


class TestClassification:
    def test_one_and_above_pass_through(self):
        for value in (1.0, -1.0, 2.5, 1e20, -37.0):
            tag, payload = compress_value(value, BOUND)
            assert tag == TAG_NO_COMPRESS
            assert payload == float_to_bits(value)

    def test_inf_and_nan_pass_through(self):
        tag, payload = compress_value(math.inf, BOUND)
        assert tag == TAG_NO_COMPRESS
        assert bits_to_float(payload) == math.inf
        tag, payload = compress_value(math.nan, BOUND)
        assert tag == TAG_NO_COMPRESS
        assert math.isnan(bits_to_float(payload))

    def test_below_bound_becomes_zero(self):
        for value in (0.0, -0.0, 2.0**-11, -(2.0**-20), 1e-38, 5e-42):
            tag, _ = compress_value(value, BOUND)
            assert tag == TAG_ZERO, value

    def test_bound_itself_is_not_zeroed(self):
        tag, _ = compress_value(2.0**-10, BOUND)
        assert tag == TAG_BIT8

    def test_mid_range_uses_eight_bits(self):
        # BIT8 covers [2^-10, 2^-3) at bound 2^-10.
        for value in (2.0**-10, 0.01, 0.1, 2.0**-3 - 2.0**-12):
            tag, _ = compress_value(value, BOUND)
            assert tag == TAG_BIT8, value

    def test_large_fraction_uses_sixteen_bits(self):
        for value in (2.0**-3, 0.2, 0.5, 0.999):
            tag, _ = compress_value(value, BOUND)
            assert tag == TAG_BIT16, value

    def test_relaxed_bound_collapses_bit16_class(self):
        # At 2^-6 the BIT8 class covers [2^-6, 2) so no sub-1.0 value
        # needs 16 bits — matches Table III's 0.0% 18-bit rows.
        bound = ErrorBound(6)
        rng = np.random.default_rng(0)
        for value in rng.uniform(2.0**-6, 1.0, size=200):
            tag, _ = compress_value(float(np.float32(value)), bound)
            assert tag == TAG_BIT8


class TestErrorBound:
    @pytest.mark.parametrize("exp", [6, 8, 10])
    def test_roundtrip_error_below_bound(self, exp):
        bound = ErrorBound(exp)
        rng = np.random.default_rng(exp)
        values = rng.standard_normal(500).astype(np.float32) * 0.3
        for value in values:
            value = float(value)
            recon = roundtrip_value(value, bound)
            if abs(value) >= 1.0:
                assert recon == value
            else:
                assert abs(recon - value) < bound.bound

    def test_zero_class_error(self):
        value = 2.0**-10 - 2.0**-24
        assert roundtrip_value(value, BOUND) == 0.0
        assert abs(value) < BOUND.bound

    def test_signs_preserved(self):
        for value in (0.3, 0.003, 0.9):
            assert roundtrip_value(-value, BOUND) == -roundtrip_value(value, BOUND)


class TestPayloadEncoding:
    def test_bit8_payload_layout(self):
        # 0.25 at bound 2^-10: q = 0.25 * 1024 = 256 -> does not fit 7 bits,
        # so it must be BIT16.  Use 0.0625: q = 64.
        tag, payload = compress_value(0.0625, BOUND)
        assert tag == TAG_BIT8
        assert payload == 64
        tag, payload = compress_value(-0.0625, BOUND)
        assert payload == 0x80 | 64

    def test_bit16_payload_layout(self):
        # 0.5 -> q = 0.5 * 2^15 = 16384
        tag, payload = compress_value(0.5, BOUND)
        assert tag == TAG_BIT16
        assert payload == 16384
        tag, payload = compress_value(-0.5, BOUND)
        assert payload == 0x8000 | 16384

    def test_bit8_payload_fits_seven_magnitude_bits(self):
        rng = np.random.default_rng(1)
        for value in rng.uniform(2.0**-10, 2.0**-3, size=300):
            tag, payload = compress_value(float(np.float32(value)), BOUND)
            assert tag == TAG_BIT8
            assert (payload & 0x7F) < 128

    def test_bit16_payload_fits_fifteen_magnitude_bits(self):
        rng = np.random.default_rng(2)
        for value in rng.uniform(2.0**-3, 1.0, size=300):
            tag, payload = compress_value(float(np.float32(value)), BOUND)
            assert tag == TAG_BIT16
            assert (payload & 0x7FFF) < 2**15


class TestDecompression:
    def test_zero_tag_decodes_to_zero(self):
        assert decompress_value(TAG_ZERO, 0, BOUND) == 0.0

    def test_idempotent_recompression(self):
        # Reconstructed values are fixed-point; compressing them again
        # must be exact (the decompressed lattice is closed under the codec).
        rng = np.random.default_rng(3)
        for value in rng.standard_normal(300).astype(np.float32) * 0.4:
            once = roundtrip_value(float(value), BOUND)
            twice = roundtrip_value(once, BOUND)
            assert once == twice

    def test_zero_payload_in_bit8_is_harmless(self):
        assert decompress_value(TAG_BIT8, 0, BOUND) == 0.0
