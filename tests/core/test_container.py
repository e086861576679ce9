"""Wire-format serialization tests for CompressedGradients."""

import numpy as np
import pytest

from repro.core import CompressedGradients, ErrorBound, compress, decompress

from . import reference_wire

BOUND = ErrorBound(10)


def _compress_random(n, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    values = (rng.standard_normal(n) * scale).astype(np.float32)
    return values, compress(values, BOUND)


def _scalar_to_bytes(cg):
    """Per-lane BitWriter reference the bulk serializer is pinned to."""
    return reference_wire.pack(cg.tags, cg.payloads)[0]


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 1000])
def test_bytes_roundtrip(n):
    _, cg = _compress_random(n)
    data = cg.to_bytes()
    back = CompressedGradients.from_bytes(data, n, BOUND)
    assert np.array_equal(back.tags, cg.tags)
    assert np.array_equal(back.payloads, cg.payloads)


def test_bytes_roundtrip_preserves_values():
    values, cg = _compress_random(123, seed=5)
    back = CompressedGradients.from_bytes(cg.to_bytes(), 123, BOUND)
    assert np.array_equal(decompress(back), decompress(cg))


def test_serialized_size_matches_compressed_bits():
    _, cg = _compress_random(512, seed=7)
    data = cg.to_bytes()
    assert len(data) == cg.compressed_nbytes
    assert cg.compressed_bits <= len(data) * 8 < cg.compressed_bits + 8


def test_partial_group_padding_is_zero_tags():
    values = np.full(3, 0.5, dtype=np.float32)
    cg = compress(values, BOUND)
    data = cg.to_bytes()
    # One group: 16 tag bits + 3 x 16-bit payloads = 64 bits = 8 bytes.
    assert len(data) == 8
    tag_word = data[0] | (data[1] << 8)
    for lane in range(3, 8):
        assert (tag_word >> (2 * lane)) & 0b11 == 0


def test_compression_ratio_definition():
    values = np.full(80, 0.5, dtype=np.float32)  # all BIT16
    cg = compress(values, BOUND)
    # 10 groups x (16 + 8*16) bits = 1440 bits; original = 2560.
    assert cg.compressed_bits == 1440
    assert cg.compression_ratio == pytest.approx(2560 / 1440)


def test_mismatched_shapes_rejected():
    with pytest.raises(ValueError):
        CompressedGradients(
            tags=np.zeros(4, dtype=np.uint8),
            payloads=np.zeros(5, dtype=np.uint32),
            bound=BOUND,
        )


def test_multidimensional_tags_rejected():
    with pytest.raises(ValueError):
        CompressedGradients(
            tags=np.zeros((2, 2), dtype=np.uint8),
            payloads=np.zeros((2, 2), dtype=np.uint32),
            bound=BOUND,
        )


def test_original_nbytes():
    _, cg = _compress_random(100)
    assert cg.original_nbytes == 400


@pytest.mark.parametrize("n", [0, 1, 3, 7, 8, 9, 17, 100, 1000, 4097])
@pytest.mark.parametrize("scale", [0.0001, 0.004, 0.3, 2.0])
def test_vectorized_to_bytes_matches_scalar_reference(n, scale):
    # The scales sweep the tag mix from mostly-ZERO to mostly-BIT32.
    _, cg = _compress_random(n, seed=n, scale=scale)
    assert cg.to_bytes() == _scalar_to_bytes(cg)


@pytest.mark.parametrize("scale", [0.0001, 0.004, 0.3, 2.0])
def test_vectorized_from_bytes_matches_scalar_reference(scale):
    _, cg = _compress_random(777, seed=1, scale=scale)
    back = CompressedGradients.from_bytes(_scalar_to_bytes(cg), 777, BOUND)
    assert np.array_equal(back.tags, cg.tags)
    assert np.array_equal(back.payloads, cg.payloads)


def test_from_bytes_allows_single_padding_byte():
    # A stream may end on a partial byte, so up to one byte of padding
    # after the final group record is legitimate framing slack.
    _, cg = _compress_random(16, seed=2)
    back = CompressedGradients.from_bytes(cg.to_bytes() + b"\x00", 16, BOUND)
    assert np.array_equal(back.tags, cg.tags)


def test_from_bytes_rejects_surplus_bytes():
    # Regression: trailing garbage beyond the padding byte used to be
    # silently ignored, hiding mis-framed or corrupt wire buffers.
    _, cg = _compress_random(16, seed=2)
    with pytest.raises(ValueError, match="surplus"):
        CompressedGradients.from_bytes(cg.to_bytes() + b"\x00\x00", 16, BOUND)


def test_from_bytes_rejects_truncated_record():
    _, cg = _compress_random(64, seed=3)
    with pytest.raises(EOFError):
        CompressedGradients.from_bytes(cg.to_bytes()[:-3], 64, BOUND)


def test_from_bytes_rejects_too_few_groups():
    _, cg = _compress_random(8, seed=4)
    with pytest.raises(EOFError, match="group records"):
        CompressedGradients.from_bytes(cg.to_bytes(), 16, BOUND)
