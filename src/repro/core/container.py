"""In-memory and wire representations of compressed gradient vectors.

The wire format is byte-aligned throughout — payload widths are 0, 8,
16 or 32 bits and the per-group tag vector is 16 bits — so the bulk
serializers below work on whole bytes with numpy scatter/gather instead
of the bit-granular :mod:`repro.core.bitstream` loops.  They are pinned
bit-exact against the scalar BitWriter/BitReader reference in
``tests/core/test_container.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .bounds import ErrorBound
from .tags import PAYLOAD_BITS_LUT

#: Floats carried per hardware burst; also the wire-format group size.
GROUP_SIZE = 8
#: Bits of tag metadata per group (8 tags x 2 bits).
GROUP_TAG_BITS = 2 * GROUP_SIZE
#: Per-tag payload width in whole bytes (the wire format is byte-aligned).
PAYLOAD_NBYTES_LUT = PAYLOAD_BITS_LUT.astype(np.int64) // 8


def wire_nbits(num_values: int, payload_bits: int) -> int:
    """Exact wire size: a 16-bit tag vector per group of 8, plus payloads."""
    return -(-num_values // GROUP_SIZE) * GROUP_TAG_BITS + payload_bits


#: Lazily built 65536-entry table: group record size in bytes (tag vector
#: plus all eight lane payloads) indexed by the 16-bit tag word.
_GROUP_RECORD_NBYTES_LUT: Optional[np.ndarray] = None


class TruncatedRecordError(EOFError):
    """A stream ends inside a group record; ``group`` is its index."""

    def __init__(self, message: str, group: int) -> None:
        super().__init__(message)
        self.group = group


def _group_record_nbytes_lut() -> np.ndarray:
    """Record size in bytes for every possible 16-bit tag word."""
    global _GROUP_RECORD_NBYTES_LUT
    if _GROUP_RECORD_NBYTES_LUT is None:
        words = np.arange(1 << GROUP_TAG_BITS, dtype=np.int64)
        total = np.full(words.shape, 2, dtype=np.int64)
        for lane in range(GROUP_SIZE):
            total += PAYLOAD_NBYTES_LUT[(words >> (2 * lane)) & 0b11]
        _GROUP_RECORD_NBYTES_LUT = total
    return _GROUP_RECORD_NBYTES_LUT


def pack_group_records(tags: np.ndarray, payloads: np.ndarray) -> bytes:
    """Serialize tag/payload lanes to the group-record wire format.

    Bulk equivalent of the per-lane BitWriter loop: per 8-value group, a
    little-endian 16-bit tag vector followed by each lane's payload
    bytes back-to-back.  A final partial group is padded with ZERO tags,
    which carry no payload.
    """
    n = int(tags.shape[0])
    if n == 0:
        return b""
    num_groups = -(-n // GROUP_SIZE)
    lane_tags = np.zeros(num_groups * GROUP_SIZE, dtype=np.uint8)
    lane_tags[:n] = tags
    lane_payloads = np.zeros(num_groups * GROUP_SIZE, dtype=np.uint32)
    lane_payloads[:n] = payloads
    grouped = lane_tags.reshape(num_groups, GROUP_SIZE).astype(np.uint32)
    shifts = 2 * np.arange(GROUP_SIZE, dtype=np.uint32)
    tag_words = np.bitwise_or.reduce(grouped << shifts, axis=1)
    lane_sizes = PAYLOAD_NBYTES_LUT[lane_tags].reshape(num_groups, GROUP_SIZE)
    record_sizes = 2 + lane_sizes.sum(axis=1)
    record_starts = np.zeros(num_groups, dtype=np.int64)
    np.cumsum(record_sizes[:-1], out=record_starts[1:])
    total = int(record_starts[-1] + record_sizes[-1])
    out = np.zeros(total, dtype=np.uint8)
    out[record_starts] = tag_words & 0xFF
    out[record_starts + 1] = tag_words >> 8
    lane_starts = (
        record_starts[:, None] + 2 + np.cumsum(lane_sizes, axis=1) - lane_sizes
    ).ravel()
    flat_sizes = lane_sizes.ravel()
    for byte_index in range(4):
        mask = flat_sizes > byte_index
        out[lane_starts[mask] + byte_index] = (
            lane_payloads[mask] >> np.uint32(8 * byte_index)
        ) & np.uint32(0xFF)
    return out.tobytes()


def scan_group_offsets(
    data: bytes, max_groups: Optional[int] = None
) -> np.ndarray:
    """Locate group-record boundaries in a serialized stream.

    Returns an int64 array of ``num_groups + 1`` byte offsets: entry *g*
    is where group *g*'s record starts and the final entry is the total
    bytes consumed.  Parsing stops when fewer than two bytes remain (a
    tag vector can never be padding) or after ``max_groups`` records.
    Raises :class:`EOFError` when a record within range overruns the
    buffer, mirroring the BitReader's truncation behaviour.

    Record sizes form a linked list over byte positions; the list is
    traversed with pointer doubling (O(size log size) vectorized work)
    instead of a per-group Python loop.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    size = int(buf.shape[0])
    if max_groups is not None and max_groups == 0:
        return np.zeros(1, dtype=np.int64)
    # jump[p] = start of the next record if one starts at byte p.
    # Positions size-1 and size end parsing cleanly; size+1 flags a
    # record that overruns the buffer.  Terminals absorb (self-map).
    jump = np.arange(size + 2, dtype=np.int64)
    if size >= 2:
        tag_words = buf[: size - 1].astype(np.int64) | (
            buf[1:].astype(np.int64) << 8
        )
        nxt = (
            np.arange(size - 1, dtype=np.int64)
            + _group_record_nbytes_lut()[tag_words]
        )
        jump[: size - 1] = np.minimum(nxt, size + 1)
    capacity = size // 2 + 2
    if max_groups is not None:
        capacity = min(capacity, max_groups + 2)
    orbit = np.zeros(capacity, dtype=np.int64)
    filled = 1
    while filled < capacity and orbit[filled - 1] < size - 1:
        take = min(filled, capacity - filled)
        orbit[filled : filled + take] = jump[orbit[:take]]
        filled += take
        jump = jump[jump]
    stop = int(np.searchsorted(orbit[:filled], size - 1, side="left"))
    if max_groups is not None:
        stop = min(stop, max_groups)
    if stop < filled and int(orbit[stop]) == size + 1:
        raise TruncatedRecordError(
            f"bitstream exhausted: group record {stop - 1} at byte "
            f"{int(orbit[stop - 1])} overruns the {size}-byte buffer",
            group=stop - 1,
        )
    return orbit[: stop + 1].copy()


def unpack_group_records(
    data: bytes, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode tag/payload lanes from records located by ``offsets``.

    Bulk equivalent of the per-lane BitReader loop.  Returns uint8 tags
    and right-aligned uint32 payloads, one lane per value including the
    final group's padding lanes (``8 * (len(offsets) - 1)`` entries).
    """
    num_groups = int(offsets.shape[0]) - 1
    if num_groups == 0:
        return (
            np.zeros(0, dtype=np.uint8),
            np.zeros(0, dtype=np.uint32),
        )
    buf = np.frombuffer(data, dtype=np.uint8)
    starts = offsets[:-1]
    tag_words = buf[starts].astype(np.uint32) | (
        buf[starts + 1].astype(np.uint32) << np.uint32(8)
    )
    shifts = 2 * np.arange(GROUP_SIZE, dtype=np.uint32)
    tags = ((tag_words[:, None] >> shifts) & np.uint32(0b11)).astype(np.uint8)
    lane_sizes = PAYLOAD_NBYTES_LUT[tags]
    lane_starts = (
        starts[:, None] + 2 + np.cumsum(lane_sizes, axis=1) - lane_sizes
    ).ravel()
    flat_sizes = lane_sizes.ravel()
    payloads = np.zeros(num_groups * GROUP_SIZE, dtype=np.uint32)
    for byte_index in range(4):
        mask = flat_sizes > byte_index
        payloads[mask] |= buf[lane_starts[mask] + byte_index].astype(
            np.uint32
        ) << np.uint32(8 * byte_index)
    return tags.ravel(), payloads


@dataclass
class CompressedGradients:
    """A compressed gradient vector.

    The canonical in-memory form keeps the per-value 2-bit ``tags`` and
    right-aligned ``payloads`` unpacked (one uint32 lane per value) so
    that decompression and statistics stay vectorized.  ``to_bytes``
    produces the exact wire format the NIC hardware emits: per group of
    8 values, a 16-bit tag vector followed by the concatenated payloads.

    Attributes
    ----------
    tags:
        ``uint8`` array of 2-bit tag values, one per input float.
    payloads:
        ``uint32`` array of right-aligned payloads (0/8/16/32 significant
        bits according to the tag).
    bound:
        The error bound the vector was compressed under; required to
        decode the BIT8 class scale.
    """

    tags: np.ndarray
    payloads: np.ndarray
    bound: ErrorBound

    def __post_init__(self) -> None:
        if self.tags.shape != self.payloads.shape:
            raise ValueError("tags and payloads must have identical shapes")
        if self.tags.ndim != 1:
            raise ValueError("compressed vectors are one-dimensional")

    def __len__(self) -> int:
        return int(self.tags.shape[0])

    @property
    def num_values(self) -> int:
        """Number of float32 values represented."""
        return len(self)

    @property
    def payload_bits(self) -> int:
        """Total payload bits across all values (excludes tags)."""
        return int(np.bincount(self.tags, minlength=4) @ PAYLOAD_BITS_LUT)

    @property
    def compressed_bits(self) -> int:
        """Exact wire-format size in bits (tags + payloads)."""
        return wire_nbits(len(self), self.payload_bits)

    @property
    def compressed_nbytes(self) -> int:
        """Wire-format size rounded up to whole bytes."""
        return -(-self.compressed_bits // 8)

    @property
    def original_nbytes(self) -> int:
        """Size of the uncompressed float32 vector."""
        return len(self) * 4

    @property
    def compression_ratio(self) -> float:
        """Original bits over compressed bits (paper Fig 14 metric)."""
        if len(self) == 0:
            return 1.0
        return (len(self) * 32) / self.compressed_bits

    def to_bytes(self) -> bytes:
        """Serialize to the hardware wire format.

        Per 8-value group: a 16-bit tag vector with value *i*'s tag at
        bits ``[2i+1 : 2i]``, then the payloads of values 0..7
        back-to-back, LSB first.  A final partial group is padded with
        ZERO tags, which carry no payload; the decoder relies on the
        caller knowing ``num_values``.
        """
        return pack_group_records(self.tags, self.payloads)

    @classmethod
    def from_bytes(
        cls, data: bytes, num_values: int, bound: ErrorBound
    ) -> "CompressedGradients":
        """Parse the wire format back into the unpacked form.

        Raises :class:`EOFError` when the stream ends inside a group
        record and :class:`ValueError` when more than one byte (the
        final byte may be bit-padding) is left over after ``num_values``
        worth of groups — a silent surplus means a corrupt or
        mis-framed wire buffer.
        """
        needed_groups = -(-num_values // GROUP_SIZE)
        offsets = scan_group_offsets(data, max_groups=needed_groups)
        num_groups = int(offsets.shape[0]) - 1
        if num_groups < needed_groups:
            raise EOFError(
                f"bitstream exhausted: stream holds {num_groups} group "
                f"records, {num_values} values need {needed_groups}"
            )
        surplus = len(data) - int(offsets[-1])
        if surplus > 1:
            raise ValueError(
                f"{surplus} surplus bytes after {num_groups} group "
                f"records ({num_values} values)"
            )
        tags, payloads = unpack_group_records(data, offsets)
        return cls(
            tags=tags[:num_values].copy(),
            payloads=payloads[:num_values].copy(),
            bound=bound,
        )
