"""The 256-bit burst decompressor (paper Fig 10).

The receive path buffers up to two 256-bit beats (the Burst Buffer),
because one compressed 8-value group can straddle consecutive beats.
Each cycle, the Tag Decoder reads the 16-bit tag vector, computes the
eight payload sizes, and the eight Decompression Blocks reconstruct a
full 256-bit output beat; the buffer then shifts out the consumed bits
and refills.

The model consumes the byte stream produced by the Compression Engine /
software codec and is validated bit-exact against ``repro.core``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bounds import ErrorBound
from repro.core.codec import decompress as codec_decompress
from repro.core.container import (
    GROUP_SIZE,
    CompressedGradients,
    TruncatedRecordError,
    scan_group_offsets,
    unpack_group_records,
)

from .axi import WORDS_PER_BURST, burst_count
from .compression_engine import EngineStats
from .engine import DEFAULT_CLOCK_HZ, BurstEngine


class DecompressionError(ValueError):
    """Raised when a compressed stream is truncated or malformed."""


class DecompressionEngine(BurstEngine):
    """Reconstructs float32 payloads from the compressed bitstream."""

    def __init__(
        self,
        bound: ErrorBound,
        num_blocks: int = WORDS_PER_BURST,
        clock_hz: float = DEFAULT_CLOCK_HZ,
    ) -> None:
        super().__init__(clock_hz, num_blocks=num_blocks)
        self.bound = bound
        self.total_groups = 0

    def decompress(
        self, data: bytes, num_values: Optional[int] = None
    ) -> "tuple[bytes, EngineStats]":
        """Decompress a packet payload back to float32 bytes.

        ``num_values`` trims the final group's padding lanes; without it
        the output length is rounded up to a whole group (the hardware
        behaviour — the host's receive buffer length does the trimming).

        The group records are located and decoded with the vectorized
        container kernels and the stats computed in closed form; both
        are pinned identical to the burst-by-burst behavioural model
        kept as the test-side oracle
        (``tests/hardware/structural_model.py``).
        """
        stats = EngineStats()
        try:
            offsets = scan_group_offsets(data)
        except TruncatedRecordError as exc:
            raise DecompressionError(
                f"compressed stream truncated inside group {exc.group}"
            ) from exc
        tags, payloads = unpack_group_records(data, offsets)
        groups = int(offsets.shape[0]) - 1
        compressed = CompressedGradients(
            tags=tags, payloads=payloads, bound=self.bound
        )
        values = codec_decompress(compressed)
        if num_values is not None:
            if num_values > groups * GROUP_SIZE:
                raise DecompressionError(
                    f"stream holds {groups * GROUP_SIZE} values, "
                    f"caller expected {num_values}"
                )
            if np.any(values.view(np.uint32)[num_values:]):
                raise DecompressionError("non-zero padding lanes in final group")
            values = values[:num_values]
        stats.bursts_out = groups
        stats.bursts_in = burst_count(int(offsets[-1]))
        stats.bits_out = int(values.shape[0]) * 32
        # An empty stream never enters the pipeline: no drain to pay.
        stats.cycles = self.charge(groups) if groups else 0
        self.total_groups += groups
        return values.tobytes(), stats
