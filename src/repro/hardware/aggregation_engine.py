"""Switch-side gradient aggregation engine (cycle/throughput model).

The sibling of :class:`~repro.hardware.compression_engine.CompressionEngine`
for the in-network aggregation site: a streaming adder tree beside a
switch egress port (or the aggregating endpoint's NIC) that folds
compressed gradient payloads into a running partial sum held in SRAM.
Operand bursts stream in one 256-bit beat per cycle, so one reduction
costs one beat per input burst plus the adder pipeline drain — charged
by the same :class:`~repro.hardware.engine.BurstEngine` rule as the
compression engines, which keeps engine comparisons apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .axi import burst_count
from .engine import DEFAULT_CLOCK_HZ, BurstEngine


@dataclass(frozen=True)
class AggregationStats:
    """Accounting for one reduction pass through the engine."""

    fan_in: int
    bytes_in: int
    bytes_out: int
    cycles: int

    def elapsed_s(self) -> float:
        """Wall-clock time of the pass at the engine clock."""
        return self.cycles / DEFAULT_CLOCK_HZ


class AggregationEngine(BurstEngine):
    """Folds compressed gradient streams burst-by-burst.

    One input burst folds per cycle, the reference compression engine's
    streaming rate.
    """

    def __init__(self) -> None:
        super().__init__()
        self.total_reductions = 0
        self.total_bytes_in = 0
        self.total_bytes_out = 0

    def reduce(
        self, payload_nbytes: Sequence[int], output_nbytes: int
    ) -> AggregationStats:
        """Account one reduction of the given input payloads.

        Returns the pass stats and accumulates the engine totals; the
        caller turns ``cycles`` into simulated time via
        :meth:`AggregationStats.elapsed_s`.
        """
        if not payload_nbytes:
            raise ValueError("a reduction needs at least one input")
        if any(n < 0 for n in payload_nbytes) or output_nbytes < 0:
            raise ValueError("payload sizes cannot be negative")
        stats = AggregationStats(
            fan_in=len(payload_nbytes),
            bytes_in=sum(payload_nbytes),
            bytes_out=output_nbytes,
            cycles=self.charge(sum(burst_count(n) for n in payload_nbytes)),
        )
        self.total_reductions += 1
        self.total_bytes_in += stats.bytes_in
        self.total_bytes_out += stats.bytes_out
        return stats
