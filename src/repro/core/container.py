"""In-memory and wire representations of compressed gradient vectors.

The wire format is byte-aligned throughout — payload widths are 0, 8,
16 or 32 bits and the per-group tag vector is 16 bits — so the bulk
serializers below work on whole bytes instead of the bit-granular
:mod:`repro.core.bitstream` loops.  A group record is a fixed-width row
of :data:`RECORD_ROW_NBYTES` bytes (two tag bytes, then eight lanes of
four little-endian payload bytes) of which each lane's tag says how many
leading payload bytes survive: packing is one ``take`` of the surviving
positions of that byte matrix, unpacking is the inverse scatter.
Locating the variable-size records of a stream is the only sequential
step: :func:`scan_group_offsets` squares the byte-position jump table
twice, walks every fourth record, and fills the three in between in
lock step — O(size) array work and size/34..size/8 Python steps.  All
three kernels are pinned bit-exact against the scalar
BitWriter/BitReader reference in ``tests/core/test_container.py`` and
``tests/core/test_wire_fuzz.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import List, Optional, Tuple

import numpy as np

from .bounds import ErrorBound
from .tags import PAYLOAD_BITS_LUT, TAG_NO_COMPRESS, TAG_ZERO

#: Floats carried per hardware burst; also the wire-format group size.
GROUP_SIZE = 8
#: Bits of tag metadata per group (8 tags x 2 bits).
GROUP_TAG_BITS = 2 * GROUP_SIZE
#: Per-tag payload width in whole bytes (the wire format is byte-aligned).
PAYLOAD_NBYTES_LUT = PAYLOAD_BITS_LUT.astype(np.int64) // 8
#: A group record at full width: the tag vector plus four bytes per lane.
RECORD_ROW_NBYTES = GROUP_TAG_BITS // 8 + 4 * GROUP_SIZE
#: Per tag, which of a lane's four little-endian payload bytes go on the
#: wire: one flag byte each, spelled as a word so one gather sets four.
_KEEP_WORDS = np.array(
    [sum(1 << 8 * byte for byte in range(n)) for n in PAYLOAD_NBYTES_LUT.tolist()],
    dtype="<u4",
)
#: The four 2-bit lane tags spelled by each value of a tag-vector byte,
#: and the payload bytes those four lanes announce.
_TAG_BYTE_LANES = (
    (np.arange(256, dtype=np.int64)[:, None] >> (0, 2, 4, 6)) & 0b11
).astype(np.uint8)
_TAG_BYTE_PAYLOAD_NBYTES = (
    PAYLOAD_NBYTES_LUT[_TAG_BYTE_LANES].sum(axis=1).astype(np.uint8)
)
#: Times :func:`scan_group_offsets` squares its jump table before walking it.
_SCAN_DOUBLINGS = 2


def wire_nbits(num_values: int, payload_bits: int) -> int:
    """Exact wire size: a 16-bit tag vector per group of 8, plus payloads."""
    return -(-num_values // GROUP_SIZE) * GROUP_TAG_BITS + payload_bits


class TruncatedRecordError(EOFError):
    """Stream ``stream`` ends inside its group record number ``group``."""

    def __init__(self, message: str, group: int, stream: int = 0) -> None:
        super().__init__(message)
        self.group = group
        self.stream = stream


def _whole_groups(lanes: np.ndarray, dtype: str) -> np.ndarray:
    """``lanes`` as ``dtype``, zero-padded to a whole number of groups."""
    lanes = np.ascontiguousarray(lanes, dtype=dtype)
    short = -lanes.shape[0] % GROUP_SIZE
    if short:
        lanes = np.concatenate([lanes, np.zeros(short, dtype=dtype)])
    return lanes


def _kept_positions(lane_tags: np.ndarray) -> np.ndarray:
    """Which bytes of the ``(groups, RECORD_ROW_NBYTES)`` matrix are on the wire.

    Flat indices in stream order: both tag bytes of every row and, per
    lane, the leading payload bytes its tag keeps.
    """
    groups = lane_tags.shape[0] // GROUP_SIZE
    keep = np.ones((groups, RECORD_ROW_NBYTES), dtype=np.bool_)
    kept_of_lane = _KEEP_WORDS.take(lane_tags).view(np.bool_)
    keep[:, 2:] = kept_of_lane.reshape(groups, 4 * GROUP_SIZE)
    return np.flatnonzero(keep)


def pack_group_records(
    tags: np.ndarray, payloads: np.ndarray
) -> Tuple[bytes, np.ndarray]:
    """Serialize tag/payload lanes to the group-record wire format.

    Bulk equivalent of the per-lane BitWriter loop: per 8-value group, a
    little-endian 16-bit tag vector followed by each lane's payload
    bytes back-to-back (payload bits above the tag's width are dropped).
    A final partial group is padded with ZERO tags, which carry no
    payload.  Returns the stream and the int64 ``groups + 1`` byte
    offsets its records start and end at — what
    :func:`scan_group_offsets` would find in it.
    """
    if tags.size and not TAG_ZERO <= tags.min() <= tags.max() <= TAG_NO_COMPRESS:
        raise ValueError("tags must be 2-bit values (0..3)")
    lane_tags = _whole_groups(tags, "u1")
    groups = lane_tags.shape[0] // GROUP_SIZE
    # Four byte-wide tags per little-endian word fold into one tag byte:
    # lane i sits 8i bits up and belongs 2i bits up.
    words = lane_tags.view("<u4")
    tag_bytes = (words | words >> 6 | words >> 12 | words >> 18).astype(np.uint8)
    rows = np.empty((groups, RECORD_ROW_NBYTES), dtype=np.uint8)
    rows[:, :2] = tag_bytes.reshape(groups, 2)
    rows[:, 2:] = (
        _whole_groups(payloads, "<u4").view(np.uint8).reshape(groups, 4 * GROUP_SIZE)
    )
    announced = _TAG_BYTE_PAYLOAD_NBYTES.take(tag_bytes.reshape(groups, 2))
    offsets = np.zeros(groups + 1, dtype=np.int64)
    np.cumsum(2 + announced[:, 0] + announced[:, 1], dtype=np.int64, out=offsets[1:])
    return rows.reshape(-1).take(_kept_positions(lane_tags)).tobytes(), offsets


def scan_group_offsets(
    data: bytes,
    max_groups: Optional[int] = None,
    starts: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Locate the group records of one stream, or of several laid end to end.

    ``starts`` holds the non-decreasing byte offset each stream begins
    at (default: one stream at byte 0); a stream ends where the next
    begins.  Returns ``(offsets, counts)``: ``counts[s]`` records were
    found in stream *s*, and ``offsets`` lists, stream after stream, the
    ``counts[s] + 1`` int64 byte offsets where its records start and the
    last one ends — exactly what scanning that stream alone returns,
    shifted by its start.  Parsing a stream stops when fewer than two of
    its bytes remain (a tag vector can never be padding) or after
    ``max_groups`` records.  Raises :class:`TruncatedRecordError` when a
    record within range overruns its stream, mirroring the BitReader's
    truncation behaviour.

    Record sizes form a linked list over byte positions.  Squaring that
    jump table ``_SCAN_DOUBLINGS`` times lets a plain walk visit every
    fourth record only; the records in between are then filled in lock
    step from all visited ones at once.  More squarings would shorten
    the walk further but each costs a pass over every byte position,
    and both costs scale with the buffer, so the balance does not
    depend on the input.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    size = int(buf.shape[0])
    if starts is None:
        starts = np.zeros(1, dtype=np.int64)
    bounds = np.append(np.asarray(starts, dtype=np.int64), size)
    if bounds[0] < 0 or (np.diff(bounds) < 0).any():
        raise ValueError("stream starts must be non-decreasing buffer offsets")
    # step[p]: where the next record starts if one starts at byte p; the
    # positions with no room left for a tag vector map to themselves.
    # int32 halves the tables' memory traffic against intp.
    step = np.arange(size + RECORD_ROW_NBYTES, dtype=np.int32)
    heads = max(size - 1, 0)
    announced = _TAG_BYTE_PAYLOAD_NBYTES.take(buf)
    step[:heads] += 2 + announced[:heads] + announced[1:]
    leap = step
    for _ in range(_SCAN_DOUBLINGS):
        leap = leap.take(leap)
    stride = 1 << _SCAN_DOUBLINGS
    # The sequential part: every stride-th record start of every stream.
    most = size if max_groups is None else -(-max_groups // stride)
    leaps = memoryview(leap)
    marks: List[int] = []
    marks_until: List[int] = []
    for at, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        for _ in repeat(None, most):
            if at >= stop - 1:
                break
            marks.append(at)
            at = leaps[at]
        marks_until.append(len(marks))
    marks_stop = np.array(marks_until, dtype=np.int64)
    marks_per_stream = np.diff(marks_stop, prepend=0)
    # The lock-step part: the stride - 1 records after each mark, kept
    # while they start inside the mark's stream and within max_groups.
    grid = np.empty((len(marks), stride), dtype=np.int64)
    grid[:, 0] = marks
    for k in range(1, stride):
        grid[:, k] = step.take(grid[:, k - 1])
    live = grid < np.repeat(bounds[1:] - 1, marks_per_stream)[:, None]
    if max_groups is not None:
        rank = np.arange(len(marks), dtype=np.int64) - np.repeat(
            marks_stop - marks_per_stream, marks_per_stream
        )
        nth = rank[:, None] * stride + np.arange(stride, dtype=np.int64)
        live &= nth < max_groups
    records = grid[live]
    found = np.zeros(len(marks) + 1, dtype=np.int64)
    np.cumsum(live.sum(axis=1), out=found[1:])
    counts = np.diff(found[marks_stop], prepend=0)
    # A stream's records end where its last one does; an empty stream's
    # where it starts.
    stops = bounds[:-1].copy()
    last = (np.cumsum(counts) - 1)[counts > 0]
    stops[counts > 0] = step[records[last]]
    overrun = np.flatnonzero(stops > bounds[1:])
    if overrun.size:
        stream = int(overrun[0])
        group = int(counts[stream]) - 1
        raise TruncatedRecordError(
            f"bitstream exhausted: group record {group} of stream {stream} "
            f"overruns its {int(bounds[stream + 1] - bounds[stream])} bytes",
            group=group,
            stream=stream,
        )
    return np.insert(records, np.cumsum(counts), stops), counts


def unpack_group_records(
    data: bytes, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode tag/payload lanes from back-to-back records bounded by ``offsets``.

    Bulk equivalent of the per-lane BitReader loop.  Returns uint8 tags
    and right-aligned uint32 payloads, one lane per value including the
    final group's padding lanes (``8 * (len(offsets) - 1)`` entries).
    Raises :class:`ValueError` when ``offsets`` leave the buffer or are
    not the boundaries the records' own tag vectors announce.
    """
    groups = int(offsets.shape[0]) - 1
    if groups <= 0:
        return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.uint32)
    buf = np.frombuffer(data, dtype=np.uint8)
    sizes = np.diff(offsets)
    if offsets[0] < 0 or offsets[-1] > buf.shape[0] or sizes.min() < 2:
        raise ValueError("record offsets leave the buffer or overlap")
    heads = offsets[:-1]
    tag_bytes = np.stack([buf.take(heads), buf.take(heads + 1)], axis=1)
    announced = _TAG_BYTE_PAYLOAD_NBYTES.take(tag_bytes)
    if not np.array_equal(sizes, 2 + announced[:, 0] + announced[:, 1]):
        raise ValueError("record offsets disagree with the records' tag vectors")
    lane_tags = _TAG_BYTE_LANES.view("<u4").take(tag_bytes).view(np.uint8).reshape(-1)
    rows = np.zeros((groups, RECORD_ROW_NBYTES), dtype=np.uint8)
    rows.reshape(-1)[_kept_positions(lane_tags)] = buf[offsets[0] : offsets[-1]]
    payloads = np.ascontiguousarray(rows[:, 2:], dtype=np.uint8).view("<u4")
    return lane_tags, payloads.reshape(-1).astype(np.uint32, copy=False)


def stray_padding_lanes(
    tags: np.ndarray, lane_stops: np.ndarray, num_values: np.ndarray
) -> np.ndarray:
    """Padding lanes that break the rule *padding lanes carry* ``TAG_ZERO``.

    Streams laid end to end own whole groups of lanes, stream *s* those
    up to ``lane_stops[s]``, of which only the first ``num_values[s]``
    are values.  The encoder pads the rest with ``TAG_ZERO``; a decoder
    that finds anything else there is looking at a corrupt stream or a
    wrong ``num_values`` and must say so rather than drop the payload.
    Returns the offending lane indices (empty when the rule holds).
    """
    lane_starts = lane_stops - np.diff(lane_stops, prepend=0)
    pads = lane_stops - lane_starts - num_values
    first = np.repeat(lane_starts + num_values - (np.cumsum(pads) - pads), pads)
    lanes = first + np.arange(first.shape[0], dtype=np.int64)
    return lanes[tags[lanes] != TAG_ZERO]


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
        return pack_group_records(self.tags, self.payloads)[0]

    @classmethod
    def from_bytes(
        cls, data: bytes, num_values: int, bound: ErrorBound
    ) -> "CompressedGradients":
        """Parse the wire format back into the unpacked form.

        Raises :class:`EOFError` when the stream ends inside a group
        record and :class:`ValueError` when ``num_values`` is negative,
        when more than one byte (the final byte may be bit-padding) is
        left over after ``num_values`` worth of groups, or when a
        padding lane of the final group is not ``TAG_ZERO`` — a silent
        surplus means a corrupt or mis-framed wire buffer.
        """
        if num_values < 0:
            raise ValueError(f"num_values cannot be negative, got {num_values}")
        needed_groups = -(-num_values // GROUP_SIZE)
        offsets, _ = scan_group_offsets(data, max_groups=needed_groups)
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
        lanes = np.array([tags.shape[0]], dtype=np.int64)
        wanted = np.array([num_values], dtype=np.int64)
        if stray_padding_lanes(tags, lanes, wanted).size:
            raise ValueError("padding lanes of the final group must carry TAG_ZERO")
        return cls(tags=tags[:num_values], payloads=payloads[:num_values], bound=bound)
