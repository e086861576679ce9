"""Hypothesis property tests on the codec's core invariants."""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CompressedGradients,
    ErrorBound,
    classify,
    compress,
    decompress,
    quantize,
)
from repro.core.reference import compress_value, decompress_value, roundtrip_value

bounds = st.integers(min_value=1, max_value=15).map(ErrorBound)

finite_floats = st.floats(
    width=32, allow_nan=False, allow_infinity=False, allow_subnormal=True
)

all_float_bits = st.integers(min_value=0, max_value=2**32 - 1)


@given(finite_floats, bounds)
def test_roundtrip_error_within_bound(value, bound):
    recon = roundtrip_value(value, bound)
    if abs(value) >= 1.0:
        assert recon == value
    else:
        assert abs(recon - value) < bound.bound


@given(finite_floats, bounds)
def test_recompression_idempotent(value, bound):
    once = roundtrip_value(value, bound)
    assert roundtrip_value(once, bound) == once


@given(finite_floats, bounds)
def test_sign_symmetry(value, bound):
    if value == 0.0 or math.isnan(value):
        return
    assert roundtrip_value(-value, bound) == -roundtrip_value(value, bound)


@given(all_float_bits, bounds)
def test_every_bit_pattern_classifies(bits, bound):
    # The codec must accept any 32-bit pattern, including NaN payloads,
    # denormals, and negative zero.
    value = struct.unpack("<f", struct.pack("<I", bits))[0]
    tag, payload = compress_value(value, bound)
    recon = decompress_value(tag, payload, bound)
    if math.isnan(value):
        assert math.isnan(recon)
    elif abs(value) >= 1.0:
        assert recon == value
    else:
        assert abs(recon - value) < bound.bound


@given(
    st.lists(finite_floats, min_size=0, max_size=200),
    bounds,
)
@settings(max_examples=50)
def test_vectorized_matches_scalar(values, bound):
    arr = np.array(values, dtype=np.float32)
    cg = compress(arr, bound)
    recon = decompress(cg)
    for i, value in enumerate(arr):
        tag, payload = compress_value(float(value), bound)
        assert (int(cg.tags[i]), int(cg.payloads[i])) == (tag, payload)
        assert recon[i] == np.float32(decompress_value(tag, payload, bound))


@given(st.lists(finite_floats, min_size=0, max_size=100), bounds)
@settings(max_examples=50)
def test_wire_format_roundtrip(values, bound):
    arr = np.array(values, dtype=np.float32)
    cg = compress(arr, bound)
    back = CompressedGradients.from_bytes(cg.to_bytes(), len(arr), bound)
    assert np.array_equal(back.tags, cg.tags)
    assert np.array_equal(back.payloads, cg.payloads)


@given(st.lists(finite_floats, min_size=1, max_size=100), bounds)
@settings(max_examples=50)
def test_compressed_never_larger_than_34_bits_per_value(values, bound):
    arr = np.array(values, dtype=np.float32)
    cg = compress(arr, bound)
    assert cg.compressed_bits <= 34 * len(arr) + 16


# Lengths 0..200 cover the empty vector and partial final groups.
bit_pattern_vectors = st.lists(all_float_bits, min_size=0, max_size=200).map(
    lambda words: np.array(words, dtype=np.uint32).view(np.float32)
)


@given(bit_pattern_vectors, bounds)
def test_quantize_equals_compress_then_decompress(values, bound):
    cg = compress(values, bound)
    nbits, reconstruction = quantize(values, bound)
    assert nbits == cg.compressed_bits
    # On the uint32 view, so -0.0 vs +0.0 and NaN payloads count.
    assert np.array_equal(
        reconstruction.view(np.uint32), decompress(cg).view(np.uint32)
    )


@given(bit_pattern_vectors, bounds)
@settings(max_examples=50)
def test_table_kernel_matches_scalar_on_any_bit_pattern(values, bound):
    cg = compress(values, bound)
    assert np.array_equal(classify(values, bound), cg.tags)
    for i, word in enumerate(values.view(np.uint32)):
        tag, payload = compress_value(float(values[i]), bound)
        assert int(cg.tags[i]) == tag
        if math.isnan(values[i]):
            # float32 -> Python float may quiet a signalling NaN; the
            # vectorized pass-through must keep the word untouched.
            assert int(cg.payloads[i]) == int(word)
        else:
            assert int(cg.payloads[i]) == payload
