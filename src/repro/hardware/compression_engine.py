"""The 256-bit burst compressor (paper Fig 9).

Structure mirrors the hardware: a Compression Unit with eight
Compression Blocks working on one burst per cycle, whose eight
variable-size outputs (0–256 bits) are concatenated behind a 16-bit tag
vector and pushed through an Alignment Unit (a shifter tree plus
accumulator) that emits full 256-bit output beats.

The produced bitstream is byte-identical to
``repro.core.compress(values).to_bytes()`` — the software codec defines
the wire format, the engine is validated against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.bitstream import BitWriter
from repro.core.bounds import ErrorBound
from repro.core.codec import compress as codec_compress
from repro.core.container import GROUP_TAG_BITS

from .axi import BURST_BITS, WORDS_PER_BURST, BurstError, iter_word_bursts
from .blocks import CompressionBlock

#: Reference-design clock (paper Sec. VII-C: 100 MHz, bandwidth-neutral).
DEFAULT_CLOCK_HZ = 100e6
#: Cycles for a burst to traverse the CB + alignment pipeline.
PIPELINE_DEPTH = 4


@dataclass
class EngineStats:
    """Operation counters for one engine pass."""

    bursts_in: int = 0
    bursts_out: int = 0
    bits_out: int = 0
    cycles: int = 0
    output_beats: List[bytes] = field(default_factory=list, repr=False)

    def elapsed_s(self, clock_hz: float = DEFAULT_CLOCK_HZ) -> float:
        """Wall-clock time of the pass at the given engine clock."""
        return self.cycles / clock_hz


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


class CompressionEngine:
    """Processes packet payloads burst-by-burst, like the RTL would."""

    def __init__(
        self,
        bound: ErrorBound,
        num_blocks: int = WORDS_PER_BURST,
        clock_hz: float = DEFAULT_CLOCK_HZ,
    ) -> None:
        if num_blocks < 1:
            raise ValueError("need at least one compression block")
        self.bound = bound
        self.clock_hz = clock_hz
        self.blocks = [CompressionBlock(bound) for _ in range(num_blocks)]
        self.total_cycles = 0
        self.total_bursts = 0

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def compress(self, payload: bytes) -> "tuple[bytes, EngineStats]":
        """Compress a packet payload of float32 words.

        Returns the compressed bitstream (the NIC reattaches it as the
        packet's new payload) and the pass statistics.

        This is the bulk path: the vectorized software codec produces
        the stream and the stats are computed in closed form.  It is
        pinned byte- and stats-identical to the burst-by-burst
        behavioural model, which remains available as
        :meth:`compress_structural`.
        """
        if len(payload) % 4:
            raise BurstError(
                "compressible payload must be whole float32 words, "
                f"got {len(payload)} bytes"
            )
        stats = EngineStats()
        values = np.frombuffer(payload, dtype="<f4")
        compressed = codec_compress(values, self.bound)
        data = compressed.to_bytes()
        num_words = int(values.shape[0])
        stats.bursts_in = -(-num_words // WORDS_PER_BURST)
        stats.bits_out = compressed.compressed_bits
        stats.bursts_out = stats.bits_out // BURST_BITS
        stats.cycles = self._cycles_for(stats.bursts_in)
        self._count_lane_words(num_words)
        self.total_cycles += stats.cycles
        self.total_bursts += stats.bursts_in
        return data, stats

    def compress_structural(self, payload: bytes) -> "tuple[bytes, EngineStats]":
        """Burst-by-burst behavioural model (one CB lane per word).

        Drop-in equivalent of :meth:`compress`; kept as the structural
        reference the bulk path is validated against.
        """
        stats = EngineStats()
        align = AlignmentUnit()
        for burst in iter_word_bursts(payload):
            stats.bursts_in += 1
            self._process_group(burst, align, stats)
        data = align.flush()
        stats.bits_out = align.bit_length
        stats.cycles = self._cycles_for(stats.bursts_in)
        self.total_cycles += stats.cycles
        self.total_bursts += stats.bursts_in
        return data, stats

    # -- internals -------------------------------------------------------------

    def _count_lane_words(self, num_words: int) -> None:
        """Attribute ``num_words`` round-robin words to the CB lanes."""
        lane_counts = np.full(
            WORDS_PER_BURST, num_words // WORDS_PER_BURST, dtype=np.int64
        )
        lane_counts[: num_words % WORDS_PER_BURST] += 1
        lanes = np.arange(WORDS_PER_BURST, dtype=np.int64) % self.num_blocks
        for lane, count in zip(lanes, lane_counts):
            self.blocks[int(lane)].words_processed += int(count)

    def _process_group(
        self, burst: Sequence[int], align: AlignmentUnit, stats: EngineStats
    ) -> None:
        """One input beat: 8 CBs fire, tags + payloads are concatenated."""
        tag_word = 0
        payloads: List[Optional[tuple]] = []
        for lane in range(WORDS_PER_BURST):
            if lane < len(burst):
                block = self.blocks[lane % self.num_blocks]
                tag, payload, nbits = block.process(burst[lane])
            else:
                # Partial final burst: unused lanes emit ZERO (no payload),
                # matching the software wire format's group padding.
                tag, payload, nbits = 0, 0, 0
            tag_word |= (tag & 0b11) << (2 * lane)
            payloads.append((payload, nbits))
        stats.bursts_out += align.push(tag_word, GROUP_TAG_BITS)
        for payload, nbits in payloads:
            stats.bursts_out += align.push(payload, nbits)

    def _cycles_for(self, bursts_in: int) -> int:
        """Engine occupancy in cycles.

        With 8 CBs, one input beat retires per cycle; with fewer blocks
        a beat needs ``ceil(8 / num_blocks)`` cycles (the ablation case).
        """
        if bursts_in == 0:
            return 0
        beats_per_burst = -(-WORDS_PER_BURST // self.num_blocks)
        return bursts_in * beats_per_burst + PIPELINE_DEPTH

    def throughput_bps(self) -> float:
        """Uncompressed-side streaming throughput in bytes/second."""
        from .timing import engine_throughput_bps  # timing imports this module

        return engine_throughput_bps(self.num_blocks, self.clock_hz)
