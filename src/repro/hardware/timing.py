"""Bridges the bit-exact hardware model to the network simulator's timing.

The network simulator only needs two numbers per NIC: the engine's
uncompressed-side streaming throughput and its pipeline-fill latency.
Both are derived from the engine configuration (block count, clock), so
ablations over engine width automatically propagate into communication
times.
"""

from __future__ import annotations

from repro.network.simulator import NicTimingModel

from .axi import WORDS_PER_BURST
from .engine import DEFAULT_CLOCK_HZ, BurstEngine
from .nic import InceptionnNic


def engine_throughput_bps(
    num_blocks: int = WORDS_PER_BURST, clock_hz: float = DEFAULT_CLOCK_HZ
) -> float:
    """Bytes/second of uncompressed data an engine can stream."""
    return BurstEngine(clock_hz, num_blocks=num_blocks).throughput_bps()


def engine_latency_s(clock_hz: float = DEFAULT_CLOCK_HZ) -> float:
    """Pipeline-fill latency through the engine."""
    return BurstEngine(clock_hz).latency_s()


def timing_model_for(nic: InceptionnNic) -> NicTimingModel:
    """The network-simulator view of a functional NIC instance."""
    engine = nic.compressor
    return NicTimingModel(
        compression=nic.enabled,
        engine_latency_s=engine.latency_s(),
        engine_throughput_bps=engine.throughput_bps(),
    )
