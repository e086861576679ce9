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
from typing import List, Sequence

import numpy as np

from repro.core.bounds import ErrorBound
from repro.core.codec import compress as codec_compress
from repro.core.container import pack_group_records

from .axi import BURST_BYTES, WORDS_PER_BURST, BurstError
from .engine import DEFAULT_CLOCK_HZ, BurstEngine


@dataclass
class EngineStats:
    """Operation counters for one engine call (a pass per payload)."""

    bursts_in: int = 0
    bursts_out: int = 0
    bits_out: int = 0
    cycles: int = 0

    def elapsed_s(self) -> float:
        """Wall-clock time of the pass at the engine clock."""
        return self.cycles / DEFAULT_CLOCK_HZ


class CompressionEngine(BurstEngine):
    """Compresses packet payloads, charged burst-by-burst like the RTL."""

    def __init__(
        self,
        bound: ErrorBound,
        num_blocks: int = WORDS_PER_BURST,
    ) -> None:
        super().__init__(num_blocks)
        self.bound = bound
        self.total_bursts = 0

    def compress(self, payload: bytes) -> "tuple[bytes, EngineStats]":
        """Compress a packet payload of float32 words.

        Returns the compressed bitstream (the NIC reattaches it as the
        packet's new payload) and the pass statistics.
        """
        streams, stats = self.compress_packets([payload])
        return streams[0], stats

    def compress_packets(
        self, payloads: Sequence[bytes]
    ) -> "tuple[List[bytes], EngineStats]":
        """One engine pass per payload; returns their streams and summed stats.

        Every payload is padded to whole groups in one lane array, so the
        vectorized software codec and one container pack produce all the
        streams at once, cut apart at group boundaries; the stats are
        computed in closed form.  Both are pinned identical to the
        burst-by-burst behavioural model kept as the test-side oracle
        (``tests/hardware/structural_model.py``).
        """
        lengths = np.array([len(payload) for payload in payloads], dtype=np.int64)
        if (lengths % 4).any():
            raise BurstError(
                "compressible payload must be whole float32 words, "
                f"got {lengths[lengths % 4 > 0][0]} bytes"
            )
        words = lengths // 4
        bursts = -(-words // WORDS_PER_BURST)
        values = np.frombuffer(b"".join(payloads), dtype="<f4")
        pads = bursts * WORDS_PER_BURST - words
        if pads.any():
            # Partial final bursts fill up with +0.0, which the codec tags ZERO.
            values = np.insert(values, np.repeat(np.cumsum(words), pads), 0.0)
        compressed = codec_compress(values, self.bound)
        data, offsets = pack_group_records(compressed.tags, compressed.payloads)
        cuts = offsets[np.cumsum(bursts)]
        nbytes = np.diff(cuts, prepend=0)
        # An empty payload never enters the pipeline: no drain to pay.
        stats = EngineStats(
            bursts_in=int(bursts.sum()),
            bursts_out=int((nbytes // BURST_BYTES).sum()),
            bits_out=int(nbytes.sum()) * 8,
            cycles=self.charge(bursts[bursts > 0]),
        )
        self.total_bursts += stats.bursts_in
        spans = zip((cuts - nbytes).tolist(), cuts.tolist())
        return [data[start:stop] for start, stop in spans], stats
