"""The one burst/pipeline cycle model every hardware engine is charged by.

The NIC's compression and decompression engines (paper Figs 9–10) and
the switch-side aggregation engine are the same machine to the timing
model: operand bursts of 256 bits stream through a fixed-depth pipeline
at the testbed's fixed 100 MHz engine clock.  A burst occupies the
pipeline for ``ceil(8 / num_blocks)`` beats (an engine with fewer than
eight blocks revisits the burst — the width ablation, the one setting),
one beat per cycle, and every pass pays the pipeline drain once.
Charging all three by this rule is what makes NIC-engine and in-switch
aggregation timings comparable.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .axi import BURST_BYTES, WORDS_PER_BURST

#: Reference-design clock (paper Sec. VII-C: 100 MHz, bandwidth-neutral);
#: every engine runs at it.
DEFAULT_CLOCK_HZ = 100e6
#: Cycles for a burst to traverse the block + alignment pipeline.
PIPELINE_DEPTH = 4


class BurstEngine:
    """Cycle accounting shared by the NIC and switch engines."""

    #: The testbed's one engine clock, not a setting.
    clock_hz = DEFAULT_CLOCK_HZ

    def __init__(self, num_blocks: int = WORDS_PER_BURST) -> None:
        if num_blocks < 1:
            raise ValueError("an engine needs at least one block")
        self.num_blocks = num_blocks
        #: With 8 blocks one burst retires per beat; narrower engines
        #: need several beats per burst.
        self.beats_per_burst = -(-WORDS_PER_BURST // num_blocks)
        self.total_cycles = 0

    def charge(self, bursts: Union[int, np.ndarray]) -> int:
        """Occupy the engine for one pass over ``bursts``; returns its cycles.

        An array of burst counts is one pass per entry, each paying its
        own drain; the return value is their total.
        """
        per_pass = bursts * self.beats_per_burst + PIPELINE_DEPTH
        cycles = int(np.sum(per_pass))
        self.total_cycles += cycles
        return cycles

    def elapsed_s(self) -> float:
        """Total engine-busy time across every pass so far."""
        return self.total_cycles / self.clock_hz

    def throughput_bps(self) -> float:
        """Nominal operand-side streaming rate in bytes/second."""
        return BURST_BYTES * self.clock_hz / self.beats_per_burst

    def latency_s(self) -> float:
        """Pipeline-fill latency through the engine."""
        return PIPELINE_DEPTH / self.clock_hz
