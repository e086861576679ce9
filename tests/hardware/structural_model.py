"""Burst-by-burst behavioural model of the NIC engines (paper Figs 9–10).

The reference oracle the engines' vectorized production paths are pinned
against (``test_engines.TestBulkStructuralEquivalence``).  Structure
mirrors the hardware: a Compression Unit of CB lanes feeding an
Alignment Unit, and a Burst Buffer + Tag Decoder feeding DB lanes.
Each block delegates to the scalar reference codec
(``tests/core/reference_codec.py``), so the oracle is bit-exact with the
specification by construction and shares no kernel with the bulk paths.
"""

import struct
from typing import Iterator, List, Optional

from repro.core.bitstream import BitReader, BitWriter
from repro.core.bounds import ErrorBound
from repro.core.container import GROUP_SIZE, GROUP_TAG_BITS
from repro.core.tags import PAYLOAD_BITS, payload_bits
from repro.hardware import (
    BURST_BITS,
    PIPELINE_DEPTH,
    WORDS_PER_BURST,
    BurstError,
    DecompressionError,
    EngineStats,
)

from ..core.reference_codec import (
    bits_to_float,
    compress_value,
    decompress_value,
    float_to_bits,
)


def iter_word_bursts(data: bytes) -> Iterator[List[int]]:
    """Yield bursts of up to 8 little-endian 32-bit words.

    The final burst may be partial (fewer than 8 words); compressible
    packet payloads must hold whole float32 values.
    """
    if len(data) % 4:
        raise BurstError(
            f"compressible payload must be whole float32 words, got {len(data)} bytes"
        )
    num_words = len(data) // 4
    words = list(struct.unpack(f"<{num_words}I", data)) if num_words else []
    for start in range(0, num_words, WORDS_PER_BURST):
        yield words[start : start + WORDS_PER_BURST]


class CompressionBlock:
    """One CB lane: 32-bit float word in, (tag, payload, nbits) out."""

    def __init__(self, bound: ErrorBound) -> None:
        self.bound = bound

    def process(self, word: int) -> "tuple[int, int, int]":
        """Compress one 32-bit word; returns ``(tag, payload, nbits)``."""
        tag, payload = compress_value(bits_to_float(word), self.bound)
        return tag, payload, payload_bits(tag)


class DecompressionBlock:
    """One DB lane: (tag, payload) in, 32-bit float word out."""

    def __init__(self, bound: ErrorBound) -> None:
        self.bound = bound

    def process(self, tag: int, payload: int) -> int:
        """Decompress one compressed vector back to a 32-bit word."""
        return float_to_bits(decompress_value(tag, payload, self.bound))


class AlignmentUnit:
    """Accumulates variable-size compressed vectors into 256-bit beats.

    The hardware uses a binary shifter tree feeding a (16–272)-bit
    staging register; behaviourally that is bit accumulation with a beat
    emitted whenever 256 bits are ready.
    """

    def __init__(self) -> None:
        self._writer = BitWriter()
        self._emitted_beats = 0

    def push(self, value: int, nbits: int) -> int:
        """Append a bit vector; returns how many new full beats exist."""
        self._writer.write(value, nbits)
        full = self._writer.bit_length // BURST_BITS
        fresh = full - self._emitted_beats
        self._emitted_beats = full
        return fresh

    @property
    def bit_length(self) -> int:
        return self._writer.bit_length

    def flush(self) -> bytes:
        """Return everything accumulated (final partial beat included)."""
        return self._writer.getvalue()


class TagDecoder:
    """Computes the eight payload sizes from a 16-bit tag vector."""

    @staticmethod
    def decode(tag_word: int) -> List[int]:
        """Return the per-lane tags of one group."""
        return [(tag_word >> (2 * lane)) & 0b11 for lane in range(GROUP_SIZE)]

    @staticmethod
    def group_payload_bits(tag_word: int) -> int:
        """Total payload bits following this tag vector (0–256)."""
        return sum(PAYLOAD_BITS[t] for t in TagDecoder.decode(tag_word))


class BurstBuffer:
    """Double-beat staging buffer in front of the Decompression Unit.

    Behaviourally a bit FIFO: the hardware's shift-and-refill is modeled
    by a reader over the whole stream plus a high-water accounting of how
    many beats had to be fetched before each group could decode.
    """

    def __init__(self, data: bytes) -> None:
        self._reader = BitReader(data)
        self._total_bits = len(data) * 8
        self.beats_fetched = 0

    def has_group(self) -> bool:
        """True while at least a tag vector remains.

        The final byte of a stream may carry up to 7 padding bits; a
        whole 16-bit tag vector can never be padding, so requiring 16
        readable bits cleanly terminates parsing.
        """
        return self._reader.bits_remaining >= GROUP_TAG_BITS

    def read(self, nbits: int) -> int:
        value = self._reader.read(nbits)
        # Account beats as the stream high-water mark crosses 256-bit lines.
        consumed = self._total_bits - self._reader.bits_remaining
        self.beats_fetched = max(self.beats_fetched, -(-consumed // BURST_BITS))
        return value


def _cycles_for(bursts: int, num_blocks: int) -> int:
    """Engine occupancy: ``ceil(8 / num_blocks)`` cycles per beat + fill."""
    if bursts == 0:
        return 0
    return bursts * -(-WORDS_PER_BURST // num_blocks) + PIPELINE_DEPTH


def compress_structural(
    payload: bytes, bound: ErrorBound, num_blocks: int = WORDS_PER_BURST
) -> "tuple[bytes, EngineStats]":
    """Compress ``payload`` one input beat at a time (one CB lane per word)."""
    blocks = [CompressionBlock(bound) for _ in range(num_blocks)]
    stats = EngineStats()
    align = AlignmentUnit()
    for burst in iter_word_bursts(payload):
        stats.bursts_in += 1
        # One input beat: 8 CBs fire, tags + payloads are concatenated.
        tag_word = 0
        payloads: List["tuple[int, int]"] = []
        for lane in range(WORDS_PER_BURST):
            if lane < len(burst):
                tag, value, nbits = blocks[lane % num_blocks].process(burst[lane])
            else:
                # Partial final burst: unused lanes emit ZERO (no payload),
                # matching the software wire format's group padding.
                tag, value, nbits = 0, 0, 0
            tag_word |= (tag & 0b11) << (2 * lane)
            payloads.append((value, nbits))
        stats.bursts_out += align.push(tag_word, GROUP_TAG_BITS)
        for value, nbits in payloads:
            stats.bursts_out += align.push(value, nbits)
    stats.bits_out = align.bit_length
    stats.cycles = _cycles_for(stats.bursts_in, num_blocks)
    return align.flush(), stats


def decompress_structural(
    data: bytes,
    bound: ErrorBound,
    num_values: Optional[int] = None,
    num_blocks: int = WORDS_PER_BURST,
) -> "tuple[bytes, EngineStats]":
    """Decompress ``data`` one group at a time (one DB lane per word)."""
    blocks = [DecompressionBlock(bound) for _ in range(num_blocks)]
    stats = EngineStats()
    buffer = BurstBuffer(data)
    words: List[int] = []
    lane_tags: List[int] = []
    groups = 0
    while buffer.has_group():
        try:
            tag_word = buffer.read(GROUP_TAG_BITS)
            lane_tags += TagDecoder.decode(tag_word)
            for lane, tag in enumerate(lane_tags[-GROUP_SIZE:]):
                nbits = PAYLOAD_BITS[tag]
                payload = buffer.read(nbits) if nbits else 0
                words.append(blocks[lane % num_blocks].process(tag, payload))
        except EOFError as exc:
            raise DecompressionError(
                f"compressed stream truncated inside group {groups}"
            ) from exc
        groups += 1
    if num_values is not None:
        if num_values > len(words):
            raise DecompressionError(
                f"stream holds {len(words)} values, caller expected {num_values}"
            )
        # The one padding rule (repro.core.container.stray_padding_lanes):
        # lanes past num_values carry TAG_ZERO, whatever they decode to.
        if num_values < 0 or any(tag != 0 for tag in lane_tags[num_values:]):
            raise DecompressionError("padding lanes of a final group are not ZERO-tagged")
        words = words[:num_values]
    stats.bursts_in = buffer.beats_fetched
    stats.bursts_out = groups
    stats.bits_out = len(words) * 32
    stats.cycles = _cycles_for(groups, num_blocks)
    return struct.pack(f"<{len(words)}I", *words), stats
