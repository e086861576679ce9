"""AXI-stream burst helpers.

Both engines exchange data with the rest of the NIC over a standard
256-bit AXI-stream bus (paper Sec. VI-A): every beat carries 8 float32
words.
"""

from __future__ import annotations

#: AXI-stream data width used by the reference design.
BURST_BITS = 256
BURST_BYTES = BURST_BITS // 8
#: float32 words per burst.
WORDS_PER_BURST = BURST_BYTES // 4


class BurstError(ValueError):
    """Raised for payloads that cannot form whole float32 words."""


def burst_count(nbytes: int) -> int:
    """Number of 256-bit beats a payload of ``nbytes`` occupies."""
    return -(-nbytes // BURST_BYTES)
