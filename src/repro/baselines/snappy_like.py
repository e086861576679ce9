"""A from-scratch LZ77 byte compressor standing in for Snappy.

The paper's Fig 7 uses Google's Snappy as the representative fast
lossless compressor; pip installs are unavailable offline, so this
module implements the same family of algorithm — greedy LZ with a
4-byte-hash match table, literals and length/offset copies — with a
Snappy-like format.  On float32 gradient bytes it achieves the paper's
reported ~1.5x only when many values repeat (e.g. zeros); on dense
random mantissas it stays near 1x, which is exactly the point the paper
makes about lossless compression of floats.

Format (little-endian varint header = uncompressed length, then tokens):

* literal token:  ``0x00 | (len-1) << 2``  (len <= 60), raw bytes follow
* copy token:     ``0x01 | (len-4) << 2``, 2-byte offset follows
"""

from __future__ import annotations

import numpy as np

from repro.core.registry import CodecResult, GradientCodec, flat32, register_codec

_MIN_MATCH = 4
_MAX_MATCH = 64  # (len - 4) must fit 6 bits
_MAX_LITERAL = 60
_MAX_OFFSET = 0xFFFF
_HASH_BITS = 14


def _write_varint(out: bytearray, value: int) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(data: bytes, pos: int) -> "tuple[int, int]":
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint header")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 35:
            raise ValueError("varint header too long")


def _hash4(data: bytes, pos: int) -> int:
    word = int.from_bytes(data[pos : pos + 4], "little")
    return (word * 0x1E35A7BD) >> (32 - _HASH_BITS) & ((1 << _HASH_BITS) - 1)


def _emit_literal(out: bytearray, data: bytes, start: int, end: int) -> None:
    pos = start
    while pos < end:
        chunk = min(_MAX_LITERAL, end - pos)
        out.append((chunk - 1) << 2)
        out.extend(data[pos : pos + chunk])
        pos += chunk


def compress(data: bytes) -> bytes:
    """Greedy LZ compression of a byte string."""
    out = bytearray()
    _write_varint(out, len(data))
    n = len(data)
    if n < _MIN_MATCH:
        if n:
            _emit_literal(out, data, 0, n)
        return bytes(out)

    table = [-1] * (1 << _HASH_BITS)
    pos = 0
    literal_start = 0
    while pos + _MIN_MATCH <= n:
        h = _hash4(data, pos)
        candidate = table[h]
        table[h] = pos
        if (
            candidate >= 0
            and pos - candidate <= _MAX_OFFSET
            and data[candidate : candidate + _MIN_MATCH]
            == data[pos : pos + _MIN_MATCH]
        ):
            length = _MIN_MATCH
            limit = min(_MAX_MATCH, n - pos)
            while (
                length < limit and data[candidate + length] == data[pos + length]
            ):
                length += 1
            if literal_start < pos:
                _emit_literal(out, data, literal_start, pos)
            out.append(0x01 | ((length - _MIN_MATCH) << 2))
            out.extend((pos - candidate).to_bytes(2, "little"))
            pos += length
            literal_start = pos
        else:
            pos += 1
    if literal_start < n:
        _emit_literal(out, data, literal_start, n)
    return bytes(out)


def decompress(blob: bytes) -> bytes:
    """Inverse of :func:`compress`."""
    expected, pos = _read_varint(blob, 0)
    out = bytearray()
    n = len(blob)
    while pos < n:
        token = blob[pos]
        pos += 1
        if token & 0x01:  # copy
            length = ((token >> 2) & 0x3F) + _MIN_MATCH
            if pos + 2 > n:
                raise ValueError("truncated copy token")
            offset = int.from_bytes(blob[pos : pos + 2], "little")
            pos += 2
            if offset == 0 or offset > len(out):
                raise ValueError(f"invalid copy offset {offset}")
            for _ in range(length):  # may self-overlap, byte-wise copy
                out.append(out[-offset])
        else:  # literal
            length = (token >> 2) + 1
            if pos + length > n:
                raise ValueError("truncated literal")
            out.extend(blob[pos : pos + length])
            pos += length
    if len(out) != expected:
        raise ValueError(
            f"decompressed {len(out)} bytes, header promised {expected}"
        )
    return bytes(out)


class SnappyCodec(GradientCodec):
    """Snappy-like lossless LZ over the raw float bytes (real bitstream)."""

    name = "snappy_like"
    lossless = True

    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        blob = compress(flat32(values).tobytes())
        restored = np.frombuffer(decompress(blob), dtype=np.float32)
        return CodecResult(payload_nbytes=len(blob), values=restored.copy())


register_codec(SnappyCodec(), tos=0x40)
