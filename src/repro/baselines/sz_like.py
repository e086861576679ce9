"""A from-scratch error-bounded lossy compressor in the style of SZ.

SZ [32] predicts each value from its neighbours and quantizes the
prediction residual under an absolute error bound; predictable data
collapses to small integer codes.  This reproduction implements the 1-D
variant: Lorenzo (previous-value) prediction, residual quantization at
``2 * bound`` steps, a compact variable-length code for the quantization
integers, and an escape path storing unpredictable values raw.
"""

from __future__ import annotations

import struct
from typing import Dict, FrozenSet, Optional

import numpy as np

from repro.core.bitstream import BitReader, BitWriter
from repro.core.registry import (
    CAP_FIXED_POINT,
    CAP_LOSSY,
    CodecResult,
    GradientCodec,
    register_codec,
)

#: Residual codes representable by the small code path.
_MAX_CODE = (1 << 15) - 1


def compress(values: np.ndarray, bound: float) -> bytes:
    """Compress float32 values with max absolute error ``bound``."""
    if bound <= 0:
        raise ValueError("error bound must be positive")
    arr = np.ascontiguousarray(values, dtype=np.float32).reshape(-1)
    writer = BitWriter()
    step = 2.0 * bound
    previous = 0.0
    for value in arr.tolist():
        if not np.isfinite(value):
            _write_escape(writer, value)
            previous = 0.0
            continue
        residual = value - previous
        code = int(round(residual / step))
        if abs(code) > _MAX_CODE:
            _write_escape(writer, value)
            previous = value
            continue
        reconstructed = previous + code * step
        if abs(reconstructed - value) > bound:
            _write_escape(writer, value)
            previous = value
            continue
        _write_code(writer, code)
        previous = reconstructed
    payload = writer.getvalue()
    return struct.pack("<I", arr.size) + payload


def _write_code(writer: BitWriter, code: int) -> None:
    """Variable-length residual code.

    Prefix ``0`` + 2 bits for codes in [-1, 1] plus "zero" fast path;
    prefix ``10`` + 8 bits for small codes; prefix ``11`` + marker for
    16-bit codes.  The tiny-code fast path is what makes smooth, highly
    predictable streams collapse.
    """
    if -1 <= code <= 1:
        writer.write(0b0, 1)
        writer.write(code + 1, 2)
    elif -127 <= code <= 127:
        writer.write(0b01, 2)  # read as '0b10' LSB-first: 1 then 0
        writer.write(code + 127, 8)
    else:
        writer.write(0b11, 2)
        writer.write(0, 1)  # discriminates from escape
        writer.write(code + _MAX_CODE, 16)


def _write_escape(writer: BitWriter, value: float) -> None:
    writer.write(0b11, 2)
    writer.write(1, 1)
    writer.write(struct.unpack("<I", struct.pack("<f", value))[0], 32)


def decompress(blob: bytes, bound: float) -> np.ndarray:
    """Inverse of :func:`compress` (same bound required)."""
    if bound <= 0:
        raise ValueError("error bound must be positive")
    if len(blob) < 4:
        raise ValueError("blob too short for header")
    (count,) = struct.unpack("<I", blob[:4])
    reader = BitReader(blob[4:])
    step = 2.0 * bound
    out = np.empty(count, dtype=np.float32)
    previous = 0.0
    for i in range(count):
        first = reader.read(1)
        if first == 0:
            code = reader.read(2) - 1
            previous = previous + code * step
            out[i] = previous
            continue
        second = reader.read(1)
        if second == 0:
            code = reader.read(8) - 127
            previous = previous + code * step
            out[i] = previous
            continue
        escape = reader.read(1)
        if escape:
            bits = reader.read(32)
            value = struct.unpack("<f", struct.pack("<I", bits))[0]
            out[i] = value
            previous = value if np.isfinite(value) else 0.0
        else:
            code = reader.read(16) - _MAX_CODE
            previous = previous + code * step
            out[i] = previous
    return out


class SzCodec(GradientCodec):
    """The SZ-style error-bounded predictor codec (real bitstream)."""

    name = "sz_like"

    def capabilities(self) -> FrozenSet[str]:
        # Re-encoding a decoded value repeats each code (or escape) from
        # the same Lorenzo predecessor: the value is the input itself
        # where float32 spacing exceeds the step, and otherwise within
        # half a step of the reconstruction it came from.
        return frozenset({CAP_LOSSY, CAP_FIXED_POINT})

    def default_params(self) -> Dict[str, object]:
        return {"bound": 2.0**-10}

    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        bound = float(params.get("bound", 2.0**-10))
        blob = compress(values, bound)
        return CodecResult(payload_nbytes=len(blob), values=decompress(blob, bound))

    def error_bound(self, values: np.ndarray, **params: object) -> Optional[float]:
        return float(params.get("bound", 2.0**-10))


register_codec(SzCodec(), tos=0x3C)
