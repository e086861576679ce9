"""Cycle-approximate, bit-exact model of the INCEPTIONN NIC hardware.

Substitutes for the paper's Xilinx VC709 implementation: the same burst
structure (8 compression/decompression blocks over a 256-bit AXI
stream), a ToS-``0x28`` packet comparator, and a 100 MHz clock driving
the timing figures the network simulator consumes.

One cycle rule (:class:`BurstEngine`) charges all three engines — the
NIC's compressor/decompressor pair and the switch-side aggregation
engine — and each engine has one production path, the vectorized bulk
one.  The burst-by-burst behavioural model of Figs 9–10 (CB/DB lanes,
Alignment Unit, Tag Decoder, Burst Buffer) is the reference oracle
those paths are pinned against; it lives with the tests, in
``tests/hardware/structural_model.py``.
"""

from .aggregation_engine import AggregationEngine, AggregationStats
from .axi import BURST_BITS, BURST_BYTES, WORDS_PER_BURST, BurstError, burst_count
from .compression_engine import CompressionEngine, EngineStats
from .decompression_engine import DecompressionEngine, DecompressionError
from .engine import DEFAULT_CLOCK_HZ, PIPELINE_DEPTH, BurstEngine
from .nic import InceptionnNic, NicCounters

__all__ = [
    "AggregationEngine",
    "AggregationStats",
    "BURST_BITS",
    "BURST_BYTES",
    "WORDS_PER_BURST",
    "BurstError",
    "burst_count",
    "CompressionEngine",
    "EngineStats",
    "DecompressionEngine",
    "DecompressionError",
    "DEFAULT_CLOCK_HZ",
    "PIPELINE_DEPTH",
    "BurstEngine",
    "InceptionnNic",
    "NicCounters",
]
