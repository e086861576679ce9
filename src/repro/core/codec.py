"""Vectorized NumPy implementation of the INCEPTIONN gradient codec.

This is the production codec: it compresses/decompresses whole gradient
vectors with array operations and is validated element-for-element
against the scalar reference in ``tests/core/reference_codec.py``.

Algorithm 2 picks a value's class from its 8-bit exponent field alone,
so every kernel reads one index, the biased exponent as uint8, and every
per-value decision is one ``take`` from a 256-entry table built once per
:class:`ErrorBound` (:func:`_exponent_table`).  The classes are
contiguous exponent ranges in tag order, so the wire size needs no
per-value table: three counts of ``e < edge`` give every class count
(:func:`class_counts`).  Algorithm 3 reads 4-entry tables indexed by tag.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Tuple

import numpy as np

from .bounds import BIT16_FRACTION_BITS, ErrorBound, FLOAT32_EXP_BIAS
from .container import CompressedGradients, wire_nbits
from .tags import PAYLOAD_BITS_LUT, TAG_BIT8, TAG_BIT16, TAG_NO_COMPRESS, TAG_ZERO

_MANTISSA_BITS = 23
_IMPLICIT_ONE = np.uint32(1 << _MANTISSA_BITS)
# Algorithm 3 by tag (ZERO, BIT8, BIT16, NO_COMPRESS): the payload's
# magnitude bits, its sign bit and the shift that lifts that bit to 31.
_MAGNITUDE = np.array([0, 0x7F, 0x7FFF, 0], dtype=np.uint32)
_SIGN = np.array([0, 0x80, 0x8000, 0], dtype=np.uint32)
_SIGN_LIFT = np.array([0, 24, 16, 0], dtype=np.uint32)


class _ExponentTable(NamedTuple):
    """Algorithm 2's per-value decisions, indexed by biased exponent."""

    tag: np.ndarray  # uint8: 2-bit class tag, nondecreasing in the exponent
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
        shift=shift.astype(np.uint32),
        signpos=np.array([0, 7, 15, 31], dtype=np.uint32)[tag],
        mask=mask.astype(np.uint32),
    )
    for column in table:  # one shared instance per bound: keep it immutable
        column.setflags(write=False)
    return table


def _bits_and_exponents(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The flat uint32 view of ``values`` and each word's biased exponent."""
    bits = np.ascontiguousarray(values, dtype=np.float32).reshape(-1).view(np.uint32)
    # The narrowing cast drops the sign bit, leaving the 8-bit exponent.
    exponent = np.empty(bits.size, dtype=np.uint8)
    return bits, np.right_shift(bits, 23, out=exponent, casting="unsafe")


def _class_counts(exponent: np.ndarray, bound: ErrorBound) -> np.ndarray:
    # Tag k's exponents start where the nondecreasing tag column reaches k.
    tag = _exponent_table(bound).tag
    edges = tag.searchsorted([TAG_BIT8, TAG_BIT16, TAG_NO_COMPRESS]).tolist()
    below = [np.count_nonzero(exponent < edge) for edge in edges]
    return np.diff(below, prepend=0, append=exponent.size)


def _nbits(counts: np.ndarray) -> int:
    return wire_nbits(int(counts.sum()), int(counts @ PAYLOAD_BITS_LUT))


def class_counts(values: np.ndarray, bound: ErrorBound) -> np.ndarray:
    """Values per tag class, ``bincount(classify(values, bound), minlength=4)``."""
    return _class_counts(_bits_and_exponents(values)[1], bound)


def classify(values: np.ndarray, bound: ErrorBound) -> np.ndarray:
    """Return the 2-bit tag for every value (vectorized Algorithm 2 head)."""
    return _exponent_table(bound).tag.take(_bits_and_exponents(values)[1])


def compress(values: np.ndarray, bound: ErrorBound) -> CompressedGradients:
    """Compress a float32 vector under the given error bound."""
    bits, exponent = _bits_and_exponents(values)
    exponent = exponent.astype(np.intp)  # take() widens uint8 per call; 4 calls
    table = _exponent_table(bound)
    tags = table.tag.take(exponent)
    payloads = table.mask.take(exponent)
    payloads &= bits
    sign = payloads >> np.uint32(31)
    sign <<= table.signpos.take(exponent)
    payloads &= np.uint32(0x7FFFFF)
    payloads |= _IMPLICIT_ONE
    payloads >>= table.shift.take(exponent)
    payloads |= sign
    np.copyto(payloads, bits, where=tags == TAG_NO_COMPRESS)
    return CompressedGradients(tags=tags, payloads=payloads, bound=bound)


def quantize(values: np.ndarray, bound: ErrorBound) -> Tuple[int, np.ndarray]:
    """Wire size in bits and the receiver's reconstruction, fused.

    Equal to ``(compress(v, b).compressed_bits, decompress(compress(v, b)))``
    bit for bit, without building tags, payloads or a container: the
    functional send path needs only these two (bytes on the wire come
    from :func:`compress`).
    """
    bits, exponent = _bits_and_exponents(values)
    reconstruction = _exponent_table(bound).mask.take(exponent)
    reconstruction &= bits
    return _nbits(_class_counts(exponent, bound)), reconstruction.view(np.float32)


def decompress(compressed: CompressedGradients) -> np.ndarray:
    """Decompress back to a float32 vector (vectorized Algorithm 3)."""
    tags, payloads = compressed.tags, compressed.payloads
    scale = [0.0, compressed.bound.bit8_scale, 2.0**-BIT16_FRACTION_BITS, 0.0]
    out = (payloads & _MAGNITUDE.take(tags)).astype(np.float32)
    out *= np.array(scale, dtype=np.float32).take(tags)
    sign = payloads & _SIGN.take(tags)
    sign <<= _SIGN_LIFT.take(tags)
    bits = out.view(np.uint32)
    bits |= sign
    np.copyto(bits, payloads, where=tags == TAG_NO_COMPRESS)
    return out


def roundtrip(values: np.ndarray, bound: ErrorBound) -> np.ndarray:
    """Compress then decompress, preserving the input's shape."""
    return quantize(values, bound)[1].reshape(np.shape(values))


def compressed_nbits(values: np.ndarray, bound: ErrorBound) -> int:
    """Wire-format size in bits, from the class counts alone."""
    return _nbits(class_counts(values, bound))
