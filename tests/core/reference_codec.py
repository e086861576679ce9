"""Bit-exact scalar reference of the INCEPTIONN codec (paper Algorithm 2/3).

This module is the specification: it manipulates individual IEEE-754
fields exactly the way the hardware Compression/Decompression Blocks do
(extract sign/exponent/mantissa, compare the exponent against the error
bound's thresholds, prepend the implicit leading one, shift right by
``127 - e`` and truncate).  The vectorized codec in :mod:`repro.core.codec`
and the burst engines in :mod:`repro.hardware` are both validated against
this implementation.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.core.bounds import ErrorBound, FLOAT32_EXP_BIAS
from repro.core.tags import TAG_BIT8, TAG_BIT16, TAG_NO_COMPRESS, TAG_ZERO

#: Number of explicit mantissa bits in an IEEE-754 single.
_MANTISSA_BITS = 23
#: The implicit leading one, in mantissa-aligned position.
_IMPLICIT_ONE = 1 << _MANTISSA_BITS


def float_to_bits(value: float) -> int:
    """Reinterpret a Python float as its 32-bit IEEE-754 pattern."""
    return struct.unpack("<I", struct.pack("<f", value))[0]


def bits_to_float(bits: int) -> float:
    """Reinterpret a 32-bit pattern as an IEEE-754 single."""
    return struct.unpack("<f", struct.pack("<I", bits & 0xFFFFFFFF))[0]


def compress_value(value: float, bound: ErrorBound) -> Tuple[int, int]:
    """Compress one float32, returning ``(tag, payload)``.

    The payload is right-aligned in an int holding 0, 8, 16 or 32
    significant bits as dictated by the tag.

    This mirrors Algorithm 2: values with biased exponent >= 127 pass
    through; values below the error bound vanish; the rest normalize the
    exponent to 127 (conceptually multiplying by ``2^(127-e)``), which in
    fixed point is prepending the implicit one to the mantissa and
    shifting right by ``127 - e``, then truncating LSBs.
    """
    bits = float_to_bits(value)
    sign = bits >> 31
    exponent = (bits >> 23) & 0xFF
    mantissa = bits & 0x7FFFFF

    if exponent >= FLOAT32_EXP_BIAS:
        return TAG_NO_COMPRESS, bits
    if exponent < bound.zero_exponent_threshold:
        return TAG_ZERO, 0

    significand = _IMPLICIT_ONE | mantissa  # 24-bit "1.m"
    if exponent < bound.bit8_exponent_threshold:
        # q = floor(|f| * 2^b):  |f| = significand * 2^(e - 127 - 23)
        shift = (FLOAT32_EXP_BIAS + _MANTISSA_BITS) - bound.exponent - exponent
        q = significand >> shift
        return TAG_BIT8, (sign << 7) | q

    # q = floor(|f| * 2^15)
    shift = (FLOAT32_EXP_BIAS + _MANTISSA_BITS) - 15 - exponent
    q = significand >> shift
    return TAG_BIT16, (sign << 15) | q


def decompress_value(tag: int, payload: int, bound: ErrorBound) -> float:
    """Decompress one ``(tag, payload)`` pair back to a float32 value.

    Mirrors Algorithm 3.  Reconstruction multiplies the fixed-point
    magnitude back by the class scale; in hardware this is a priority
    encoder (find the leading one) recomputing the exponent.
    """
    tag &= 0b11
    if tag == TAG_ZERO:
        return 0.0
    if tag == TAG_NO_COMPRESS:
        return bits_to_float(payload)
    if tag == TAG_BIT8:
        sign = -1.0 if payload & 0x80 else 1.0
        return sign * (payload & 0x7F) * bound.bit8_scale
    sign = -1.0 if payload & 0x8000 else 1.0
    return sign * (payload & 0x7FFF) * 2.0**-15


def roundtrip_value(value: float, bound: ErrorBound) -> float:
    """Compress then decompress a single value."""
    tag, payload = compress_value(value, bound)
    return decompress_value(tag, payload, bound)
