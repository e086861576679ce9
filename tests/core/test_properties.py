"""Hypothesis property tests on the codec's core invariants."""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    CodecResult,
    CompressedGradients,
    ErrorBound,
    classify,
    compress,
    decompress,
    profile_for,
    quantize,
)
from .reference_codec import compress_value, decompress_value, roundtrip_value

from . import reference_homomorphic

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
@settings(max_examples=50, deadline=None)
def test_vectorized_matches_scalar(values, bound):
    arr = np.array(values, dtype=np.float32)
    cg = compress(arr, bound)
    recon = decompress(cg)
    for i, value in enumerate(arr):
        tag, payload = compress_value(float(value), bound)
        assert (int(cg.tags[i]), int(cg.payloads[i])) == (tag, payload)
        assert recon[i] == np.float32(decompress_value(tag, payload, bound))


@given(st.lists(finite_floats, min_size=0, max_size=100), bounds)
@settings(max_examples=50, deadline=None)
def test_wire_format_roundtrip(values, bound):
    arr = np.array(values, dtype=np.float32)
    cg = compress(arr, bound)
    back = CompressedGradients.from_bytes(cg.to_bytes(), len(arr), bound)
    assert np.array_equal(back.tags, cg.tags)
    assert np.array_equal(back.payloads, cg.payloads)


@given(st.lists(finite_floats, min_size=1, max_size=100), bounds)
@settings(max_examples=50, deadline=None)
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
@settings(max_examples=50, deadline=None)
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


# -- lossless_hc: limb-window accumulator vs. the big-int oracle -------------


@st.composite
def hc_fold_programs(draw):
    """Finite parts, which of them lose their state, and a fold order."""
    fan_in = draw(st.integers(min_value=1, max_value=8))
    size = draw(st.integers(min_value=0, max_value=300))
    # Signed powers of two spaced so that column sums land on float32
    # ties (24 bits down), float64 ties (53) and just past either --
    # where the render's two roundings and its sticky bit decide.
    anchor = draw(st.integers(min_value=111, max_value=254))
    near_ties = st.builds(
        lambda sign, down: (sign << 31) | ((anchor - down) << 23),
        st.integers(0, 1),
        st.sampled_from([0, 23, 24, 53, 80, 110]),
    )
    elements = draw(st.sampled_from([all_float_bits, near_ties]))
    # No fill: every element is its own draw, so columns differ.
    words = draw(
        hnp.arrays(np.uint32, (fan_in, size), elements=elements, fill=st.nothing())
    )
    # inf/NaN patterns drop to exponent 0xFE: finite, next to FLT_MAX.
    non_finite = (words & 0x7F800000) == 0x7F800000
    words = np.where(non_finite, words & 0xFF7FFFFF, words).astype(np.uint32)
    for k in range(1, fan_in):
        # Independent bit patterns almost never cancel; a negated copy
        # with a few low fraction bits flipped does, at equal exponent.
        mirror = draw(
            st.none()
            | st.tuples(st.integers(0, k - 1), st.integers(min_value=0, max_value=7))
        )
        if mirror is not None:
            words[k] = words[mirror[0]] ^ np.uint32(0x80000000 | mirror[1])
    stripped = draw(st.lists(st.booleans(), min_size=fan_in, max_size=fan_in))
    # A binary tree: fold two neighbours until one part is left.
    merges = [draw(st.integers(0, left - 2)) for left in range(fan_in, 1, -1)]
    return words.view(np.float32), stripped, merges


@given(hc_fold_programs())
@settings(max_examples=60, deadline=None)
def test_limb_window_fold_matches_big_int_oracle(program):
    values, stripped, merges = program
    stream = profile_for("lossless_hc")

    def parts_from(compress):
        parts = [compress(v) for v in values]
        return [
            CodecResult(p.payload_nbytes, p.values, p.fan_in) if strip else p
            for p, strip in zip(parts, stripped)
        ]

    with np.errstate(over="ignore"):  # sums past FLT_MAX render inf
        want = reference_homomorphic.aggregate_compressed(
            parts_from(reference_homomorphic.compress)
        )
        tree = parts_from(stream.compress)
        flat = stream.aggregate_compressed(tree)
        for at in merges:
            tree[at : at + 2] = [stream.aggregate_compressed(tree[at : at + 2])]
        (root,) = tree
        # Folding the root alone re-renders it (and renders a lone part).
        root = stream.aggregate_compressed([root])
    for got in (flat, root):
        # On the uint32 view, so -0.0 vs +0.0 counts.
        assert np.array_equal(got.values.view(np.uint32), want.values.view(np.uint32))
        assert got.payload_nbytes == want.payload_nbytes
        assert got.fan_in == want.fan_in == len(values)
