"""Vectorized NumPy implementation of the INCEPTIONN gradient codec.

This is the production codec: it compresses/decompresses whole gradient
vectors with array operations and is validated element-for-element
against the scalar reference in ``tests/core/reference_codec.py``.

Algorithm 2 picks a value's class from its 8-bit exponent field alone,
so every per-value decision is one lookup in a 256-entry table built
once per :class:`ErrorBound` (:func:`_exponent_table`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Tuple

import numpy as np

from .bounds import BIT16_FRACTION_BITS, ErrorBound, FLOAT32_EXP_BIAS
from .container import CompressedGradients, wire_nbits
from .tags import (
    PAYLOAD_BITS_LUT,
    TAG_BIT8,
    TAG_BIT16,
    TAG_NO_COMPRESS,
    TAG_ZERO,
)

_MANTISSA_BITS = 23
_IMPLICIT_ONE = np.uint32(1 << _MANTISSA_BITS)


class _ExponentTable(NamedTuple):
    """Algorithm 2's per-value decisions, indexed by biased exponent."""

    tag: np.ndarray  # uint8: 2-bit class tag
    nbits: np.ndarray  # int64: payload bits of that class
    shift: np.ndarray  # uint32: significand bits the quantiser drops
    signpos: np.ndarray  # uint32: bit position of the sign in the payload
    mask: np.ndarray  # uint32: input bits the receiver gets back


@lru_cache(maxsize=None)
def _exponent_table(bound: ErrorBound) -> _ExponentTable:
    exponent = np.arange(256, dtype=np.int64)
    tag = np.full(256, TAG_BIT16, dtype=np.uint8)
    tag[exponent < bound.bit8_exponent_threshold] = TAG_BIT8
    tag[exponent < bound.zero_exponent_threshold] = TAG_ZERO
    # NO_COMPRESS has highest precedence: with relaxed bounds (b < 7) the
    # BIT8 exponent threshold exceeds 127 and would otherwise swallow it.
    tag[exponent >= FLOAT32_EXP_BIAS] = TAG_NO_COMPRESS
    # q = significand >> shift is floor(|f| * 2^scale).  ZERO shifts the
    # whole 24-bit significand out; NO_COMPRESS drops nothing.
    scale = np.array([0, bound.exponent, BIT16_FRACTION_BITS, 0], dtype=np.int64)
    shift = FLOAT32_EXP_BIAS + _MANTISSA_BITS - scale[tag] - exponent
    shift[tag == TAG_ZERO] = _MANTISSA_BITS + 1
    shift[tag == TAG_NO_COMPRESS] = 0
    # q * 2^-scale is the input with its dropped significand bits cleared
    # (sign and exponent intact); ZERO decodes to +0.0.
    mask = (0xFFFFFFFF << shift) & 0xFFFFFFFF
    mask[tag == TAG_ZERO] = 0
    table = _ExponentTable(
        tag=tag,
        nbits=PAYLOAD_BITS_LUT[tag].astype(np.int64),
        shift=shift.astype(np.uint32),
        signpos=np.array([0, 7, 15, 31], dtype=np.uint32)[tag],
        mask=mask.astype(np.uint32),
    )
    for column in table:  # one shared instance per bound: keep it immutable
        column.setflags(write=False)
    return table


def _bits_and_exponents(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The flat uint32 view of ``values`` and each word's table index."""
    flat = np.ascontiguousarray(values, dtype=np.float32).reshape(-1)
    bits = flat.view(np.uint32)
    return bits, ((bits >> np.uint32(23)) & np.uint32(0xFF)).astype(np.intp)


def _histogram_nbits(exponent: np.ndarray, table: _ExponentTable) -> int:
    counts = np.bincount(exponent, minlength=256)
    return wire_nbits(exponent.size, int(counts @ table.nbits))


def classify(values: np.ndarray, bound: ErrorBound) -> np.ndarray:
    """Return the 2-bit tag for every value (vectorized Algorithm 2 head)."""
    return _exponent_table(bound).tag[_bits_and_exponents(values)[1]]


def compress(values: np.ndarray, bound: ErrorBound) -> CompressedGradients:
    """Compress a float32 vector under the given error bound."""
    bits, exponent = _bits_and_exponents(values)
    table = _exponent_table(bound)
    tags = table.tag[exponent]
    kept = bits & table.mask[exponent]
    q = ((kept & np.uint32(0x7FFFFF)) | _IMPLICIT_ONE) >> table.shift[exponent]
    payloads = ((kept >> np.uint32(31)) << table.signpos[exponent]) | q
    payloads = np.where(tags == TAG_NO_COMPRESS, bits, payloads)
    return CompressedGradients(tags=tags, payloads=payloads, bound=bound)


def quantize(values: np.ndarray, bound: ErrorBound) -> Tuple[int, np.ndarray]:
    """Wire size in bits and the receiver's reconstruction, fused.

    Equal to ``(compress(v, b).compressed_bits, decompress(compress(v, b)))``
    bit for bit, without building tags, payloads or a container: the
    functional send path needs only these two (bytes on the wire come
    from :func:`compress`).
    """
    bits, exponent = _bits_and_exponents(values)
    table = _exponent_table(bound)
    reconstruction = (bits & table.mask[exponent]).view(np.float32)
    return _histogram_nbits(exponent, table), reconstruction


def decompress(compressed: CompressedGradients) -> np.ndarray:
    """Decompress back to a float32 vector (vectorized Algorithm 3)."""
    tags = compressed.tags
    payloads = compressed.payloads
    bound = compressed.bound
    out = np.zeros(tags.shape, dtype=np.float32)

    mask = tags == TAG_NO_COMPRESS
    if mask.any():
        out[mask] = payloads[mask].view(np.float32)

    mask = tags == TAG_BIT8
    if mask.any():
        p = payloads[mask]
        magnitude = (p & np.uint32(0x7F)).astype(np.float32) * np.float32(
            bound.bit8_scale
        )
        out[mask] = np.where(p & np.uint32(0x80), -magnitude, magnitude)

    mask = tags == TAG_BIT16
    if mask.any():
        p = payloads[mask]
        magnitude = (p & np.uint32(0x7FFF)).astype(np.float32) * np.float32(2.0**-15)
        out[mask] = np.where(p & np.uint32(0x8000), -magnitude, magnitude)

    return out


def roundtrip(values: np.ndarray, bound: ErrorBound) -> np.ndarray:
    """Compress then decompress, preserving the input's shape."""
    arr = np.asarray(values, dtype=np.float32)
    return quantize(arr, bound)[1].reshape(arr.shape)


def compressed_nbits(values: np.ndarray, bound: ErrorBound) -> int:
    """Wire-format size in bits, from the exponent histogram alone."""
    return _histogram_nbits(_bits_and_exponents(values)[1], _exponent_table(bound))
