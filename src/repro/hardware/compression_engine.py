"""The 256-bit burst compressor (paper Fig 9).

The hardware is a Compression Unit with eight Compression Blocks
working on one burst per cycle, whose eight variable-size outputs
(0–256 bits) are concatenated behind a 16-bit tag vector and pushed
through an Alignment Unit that emits full 256-bit output beats.

The produced bitstream is byte-identical to
``repro.core.compress(values).to_bytes()`` — the software codec defines
the wire format, the engine is validated against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bounds import ErrorBound
from repro.core.codec import compress as codec_compress

from .axi import BURST_BITS, WORDS_PER_BURST, BurstError, burst_count
from .engine import DEFAULT_CLOCK_HZ, BurstEngine


@dataclass
class EngineStats:
    """Operation counters for one engine pass."""

    bursts_in: int = 0
    bursts_out: int = 0
    bits_out: int = 0
    cycles: int = 0

    def elapsed_s(self, clock_hz: float = DEFAULT_CLOCK_HZ) -> float:
        """Wall-clock time of the pass at the given engine clock."""
        return self.cycles / clock_hz


class CompressionEngine(BurstEngine):
    """Compresses packet payloads, charged burst-by-burst like the RTL."""

    def __init__(
        self,
        bound: ErrorBound,
        num_blocks: int = WORDS_PER_BURST,
        clock_hz: float = DEFAULT_CLOCK_HZ,
    ) -> None:
        super().__init__(clock_hz, num_blocks=num_blocks)
        self.bound = bound
        self.total_bursts = 0

    def compress(self, payload: bytes) -> "tuple[bytes, EngineStats]":
        """Compress a packet payload of float32 words.

        Returns the compressed bitstream (the NIC reattaches it as the
        packet's new payload) and the pass statistics.

        The vectorized software codec produces the stream and the stats
        are computed in closed form; both are pinned identical to the
        burst-by-burst behavioural model kept as the test-side oracle
        (``tests/hardware/structural_model.py``).
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
        stats.bursts_in = burst_count(len(payload))
        stats.bits_out = compressed.compressed_bits
        stats.bursts_out = stats.bits_out // BURST_BITS
        # An empty payload never enters the pipeline: no drain to pay.
        stats.cycles = self.charge(stats.bursts_in) if stats.bursts_in else 0
        self.total_bursts += stats.bursts_in
        return data, stats
