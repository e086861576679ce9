"""Vectorized codec tests, including equivalence with the scalar reference."""

import numpy as np
import pytest

from repro.core import (
    ErrorBound,
    TAG_BIT8,
    TAG_BIT16,
    TAG_NO_COMPRESS,
    TAG_ZERO,
    CompressedGradients,
    classify,
    compress,
    compressed_nbits,
    decompress,
    quantize,
    roundtrip,
)
from repro.core.bounds import FLOAT32_EXP_BIAS
from repro.core.codec import _exponent_table, class_counts
from .reference_codec import compress_value, decompress_value


def _sample_gradients(n=4096, scale=0.3, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) * scale).astype(np.float32)


@pytest.mark.parametrize("exp", [6, 8, 10])
def test_matches_scalar_reference(exp):
    bound = ErrorBound(exp)
    values = _sample_gradients(2000, seed=exp)
    # Mix in boundary-ish values.
    extras = np.array(
        [0.0, -0.0, 1.0, -1.0, 2.0**-exp, -(2.0**-exp), 0.999, 5e-42, 1e30],
        dtype=np.float32,
    )
    values = np.concatenate([values, extras])
    cg = compress(values, bound)
    for i, value in enumerate(values):
        tag, payload = compress_value(float(value), bound)
        assert cg.tags[i] == tag, (i, value)
        assert cg.payloads[i] == payload, (i, value)


@pytest.mark.parametrize("exp", [6, 8, 10])
def test_decompress_matches_scalar_reference(exp):
    bound = ErrorBound(exp)
    values = _sample_gradients(2000, seed=exp + 100)
    cg = compress(values, bound)
    recon = decompress(cg)
    for i in range(len(values)):
        expected = decompress_value(int(cg.tags[i]), int(cg.payloads[i]), bound)
        assert recon[i] == np.float32(expected)


def test_roundtrip_error_bound_vectorized():
    bound = ErrorBound(10)
    values = _sample_gradients(100_000, scale=0.2)
    recon = roundtrip(values, bound)
    inside = np.abs(values) < 1.0
    assert np.max(np.abs(values[inside] - recon[inside])) < bound.bound
    assert np.array_equal(values[~inside], recon[~inside])


def test_roundtrip_preserves_shape():
    bound = ErrorBound(8)
    values = _sample_gradients(600).reshape(20, 30)
    recon = roundtrip(values, bound)
    assert recon.shape == (20, 30)


def test_classify_extremes():
    bound = ErrorBound(10)
    values = np.array([0.0, np.inf, -np.inf, np.nan, 1e-40], dtype=np.float32)
    tags = classify(values, bound)
    assert tags[0] == TAG_ZERO
    assert tags[1] == TAG_NO_COMPRESS
    assert tags[2] == TAG_NO_COMPRESS
    assert tags[3] == TAG_NO_COMPRESS
    assert tags[4] == TAG_ZERO


def test_nan_and_inf_survive_roundtrip():
    bound = ErrorBound(10)
    values = np.array([np.nan, np.inf, -np.inf], dtype=np.float32)
    recon = roundtrip(values, bound)
    assert np.isnan(recon[0])
    assert recon[1] == np.inf
    assert recon[2] == -np.inf


def test_empty_vector():
    bound = ErrorBound(10)
    cg = compress(np.array([], dtype=np.float32), bound)
    assert len(cg) == 0
    assert decompress(cg).shape == (0,)
    assert cg.compression_ratio == 1.0


def test_compressed_nbits_matches_container():
    bound = ErrorBound(10)
    values = _sample_gradients(1000)
    cg = compress(values, bound)
    assert compressed_nbits(values, bound) == cg.compressed_bits


def test_all_zero_vector_hits_maximum_ratio():
    bound = ErrorBound(10)
    values = np.zeros(8000, dtype=np.float32)
    cg = compress(values, bound)
    # 2 bits per value out of 32 -> exactly 16x.
    assert cg.compression_ratio == pytest.approx(16.0)


def test_accepts_float64_input():
    bound = ErrorBound(10)
    values = np.array([0.5, 0.001, 2.0], dtype=np.float64)
    recon = roundtrip(values, bound)
    assert abs(recon[0] - 0.5) < bound.bound
    assert recon[2] == 2.0


@pytest.mark.parametrize("exp", range(1, 16))
def test_exponent_table_is_the_threshold_rule(exp):
    # Exhaustive over the table's whole domain: Algorithm 2 decides on
    # the 8-bit exponent alone, so 15 bounds x 256 exponents is all of it.
    bound = ErrorBound(exp)
    table = _exponent_table(bound)
    for exponent in range(256):
        if exponent >= FLOAT32_EXP_BIAS:  # precedence over a relaxed BIT8
            expected = TAG_NO_COMPRESS
        elif exponent < bound.zero_exponent_threshold:
            expected = TAG_ZERO
        elif exponent < bound.bit8_exponent_threshold:
            expected = TAG_BIT8
        else:
            expected = TAG_BIT16
        assert table.tag[exponent] == expected, exponent
        # classify() reads the same entry whatever the sign and mantissa.
        words = np.array(
            [
                (sign << 31) | (exponent << 23) | mantissa
                for sign in (0, 1)
                for mantissa in (0, 1, 0x7FFFFF)
            ],
            dtype=np.uint32,
        )
        assert (classify(words.view(np.float32), bound) == expected).all()


def test_exponent_table_is_cached_typed_and_read_only():
    table = _exponent_table(ErrorBound(10))
    assert _exponent_table(ErrorBound(10)) is table
    dtypes = {name: column.dtype for name, column in table._asdict().items()}
    assert dtypes == {
        "tag": np.uint8,
        "shift": np.uint32,
        "signpos": np.uint32,
        "mask": np.uint32,
    }
    for column in table:
        assert column.shape == (256,)
        with pytest.raises(ValueError):
            column[0] = 1


@pytest.mark.parametrize("exp", [1, 6, 8, 10, 15])
def test_quantize_is_size_plus_reconstruction(exp):
    bound = ErrorBound(exp)
    values = np.concatenate(
        [
            _sample_gradients(1003, seed=exp),
            np.array(
                [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-40, 1.0, -1.0],
                dtype=np.float32,
            ),
        ]
    )
    cg = compress(values, bound)
    nbits, reconstruction = quantize(values, bound)
    assert nbits == cg.compressed_bits
    assert reconstruction.dtype == np.float32
    # Bit view: -0.0 must come back +0.0 and NaN payloads must survive.
    assert np.array_equal(
        reconstruction.view(np.uint32), decompress(cg).view(np.uint32)
    )
    assert not np.shares_memory(reconstruction, values)


def _words(exponents, mantissas=(0, 1, 0x7FFFFF)):
    """One float32 per (sign, exponent, mantissa), grouped by mantissa."""
    return np.array(
        [
            (sign << 31) | (exponent << 23) | mantissa
            for mantissa in mantissas
            for sign in (0, 1)
            for exponent in exponents
        ],
        dtype=np.uint32,
    ).view(np.float32)


def _assert_sizes_agree(values, bound):
    nbits = quantize(values, bound)[0]
    assert nbits == compressed_nbits(values, bound)
    assert nbits == compress(values, bound).compressed_bits
    expected = np.bincount(classify(values, bound), minlength=4)
    assert class_counts(values, bound).tolist() == expected.tolist()


@pytest.mark.parametrize("exp", range(1, 16))
def test_sizes_and_class_counts_over_the_whole_exponent_domain(exp):
    # Relaxed bounds (b < 7) put the BIT8 threshold past 127; the class
    # counts must still stop BIT8 and BIT16 at NO_COMPRESS.
    bound = ErrorBound(exp)
    for mantissa in (0, 1, 0x7FFFFF):
        _assert_sizes_agree(_words(range(256), (mantissa,)), bound)
    for exponent in range(256):  # every class edge on its own
        _assert_sizes_agree(_words([exponent]), bound)
    _assert_sizes_agree(np.array([], dtype=np.float32), bound)


def _shaped_inputs():
    base = _sample_gradients(3 * 401, seed=11)
    base[::7] = np.array([0.0, -0.0, np.inf, -np.nan, 3.5, -1e-40, 1e-45])[
        np.arange(base[::7].size) % 7
    ]
    return {
        "contiguous": base,
        "strided": base[::3],
        "2-D": base.reshape(3, 401),
        "float64": base.astype(np.float64),
        "read-only": np.frombuffer(base.tobytes(), dtype=np.float32),
    }


@pytest.mark.parametrize("kind", sorted(_shaped_inputs()))
def test_kernels_take_any_input_layout_without_touching_it(kind):
    values = _shaped_inputs()[kind]
    before = values.copy()
    contiguous = np.array(values, order="C")
    bound = ErrorBound(8)

    nbits, reconstruction = quantize(values, bound)
    expected_nbits, expected = quantize(contiguous, bound)
    assert nbits == expected_nbits == compressed_nbits(values, bound)
    assert np.array_equal(reconstruction.view(np.uint32), expected.view(np.uint32))
    assert not np.shares_memory(reconstruction, values)
    assert np.array_equal(
        roundtrip(values, bound).view(np.uint32),
        roundtrip(contiguous, bound).view(np.uint32),
    )
    assert np.array_equal(classify(values, bound), classify(contiguous, bound))

    cg = compress(values, bound)
    assert not np.shares_memory(cg.payloads, values)
    restored = decompress(cg)
    assert np.array_equal(restored.view(np.uint32), expected.view(np.uint32))
    assert not np.shares_memory(restored, cg.payloads)
    assert values.tobytes() == before.tobytes()


@pytest.mark.parametrize("layout", ["strided", "read-only"])
def test_decompress_takes_any_container_layout_without_touching_it(layout):
    cg = compress(_sample_gradients(3 * 401, seed=12), ErrorBound(6))
    if layout == "strided":
        tags, payloads = cg.tags[::3], cg.payloads[::3]
    else:
        tags = np.frombuffer(cg.tags.tobytes(), dtype=np.uint8)
        payloads = np.frombuffer(cg.payloads.tobytes(), dtype=np.uint32)
    before = payloads.copy()
    restored = decompress(CompressedGradients(tags, payloads, cg.bound))
    expected = decompress(
        CompressedGradients(tags.copy(), payloads.copy(), cg.bound)
    )
    assert np.array_equal(restored.view(np.uint32), expected.view(np.uint32))
    assert not np.shares_memory(restored, payloads)
    assert np.array_equal(payloads, before)


def test_decompress_refuses_a_tag_wider_than_two_bits():
    cg = CompressedGradients(
        tags=np.array([0, 4, 1], dtype=np.uint8),
        payloads=np.zeros(3, dtype=np.uint32),
        bound=ErrorBound(10),
    )
    with pytest.raises(IndexError):
        decompress(cg)
