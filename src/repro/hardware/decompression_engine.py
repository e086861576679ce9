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

from typing import List, Optional, Sequence

import numpy as np

from repro.core.bounds import ErrorBound
from repro.core.codec import decompress as codec_decompress
from repro.core.container import (
    GROUP_SIZE,
    CompressedGradients,
    TruncatedRecordError,
    scan_group_offsets,
    stray_padding_lanes,
    unpack_group_records,
)

from .axi import BURST_BYTES, WORDS_PER_BURST
from .compression_engine import EngineStats
from .engine import BurstEngine


class DecompressionError(ValueError):
    """Raised when a compressed stream is truncated or malformed."""


class DecompressionEngine(BurstEngine):
    """Reconstructs float32 payloads from the compressed bitstream."""

    def __init__(
        self,
        bound: ErrorBound,
        num_blocks: int = WORDS_PER_BURST,
    ) -> None:
        super().__init__(num_blocks)
        self.bound = bound
        self.total_groups = 0

    def decompress(
        self, data: bytes, num_values: Optional[int] = None
    ) -> "tuple[bytes, EngineStats]":
        """Decompress a packet payload back to float32 bytes.

        ``num_values`` trims the final group's padding lanes; without it
        the output length is rounded up to a whole group (the hardware
        behaviour — the host's receive buffer length does the trimming).
        """
        restored, stats = self.decompress_packets([data], [num_values])
        return restored[0], stats

    def decompress_packets(
        self, streams: Sequence[bytes], num_values: Sequence[Optional[int]]
    ) -> "tuple[List[bytes], EngineStats]":
        """One engine pass per stream; returns their payloads and summed stats.

        The streams are laid end to end, so one container scan locates
        every group record, one unpack and one codec call decode them,
        and the float32 bytes are cut apart per stream; the stats are
        computed in closed form.  Both are pinned identical to the
        burst-by-burst behavioural model kept as the test-side oracle
        (``tests/hardware/structural_model.py``).  Nothing is charged to
        the engine when any stream is malformed.
        """
        lengths = np.array([len(stream) for stream in streams], dtype=np.int64)
        starts = np.cumsum(lengths) - lengths
        joined = b"".join(streams)
        try:
            offsets, groups = scan_group_offsets(joined, starts=starts)
        except TruncatedRecordError as exc:
            raise DecompressionError(
                f"compressed stream {exc.stream} truncated inside group {exc.group}"
            ) from exc
        closing = np.cumsum(groups + 1) - 1
        consumed = offsets[closing] - starts
        if (consumed != lengths).any():
            # A stream may end on one byte of bit padding; drop it, since
            # records unpack only when they lie back to back.
            trimmed = [s[:size] for s, size in zip(streams, consumed.tolist())]
            return self.decompress_packets(trimmed, num_values)
        tags, payloads = unpack_group_records(
            joined, np.delete(offsets, closing[:-1])
        )
        lanes = groups * GROUP_SIZE
        wanted = np.array(
            [held if n is None else n for n, held in zip(num_values, lanes.tolist())],
            dtype=np.int64,
        )
        misfit = np.flatnonzero((wanted < 0) | (wanted > lanes))
        if misfit.size:
            raise DecompressionError(
                f"stream holds {lanes[misfit[0]]} values, "
                f"caller expected {wanted[misfit[0]]}"
            )
        lane_stops = np.cumsum(lanes)
        if stray_padding_lanes(tags, lane_stops, wanted).size:
            raise DecompressionError(
                "padding lanes of a final group are not ZERO-tagged"
            )
        values = codec_decompress(
            CompressedGradients(tags=tags, payloads=payloads, bound=self.bound)
        )
        raw = values.astype("<f4", copy=False).tobytes()
        # An empty stream never enters the pipeline: no drain to pay.
        stats = EngineStats(
            bursts_in=int((-(-consumed // BURST_BYTES)).sum()),
            bursts_out=int(groups.sum()),
            bits_out=int(wanted.sum()) * 32,
            cycles=self.charge(groups[groups > 0]),
        )
        self.total_groups += stats.bursts_out
        spans = zip((lane_stops - lanes).tolist(), wanted.tolist())
        return [raw[4 * start : 4 * (start + size)] for start, size in spans], stats
