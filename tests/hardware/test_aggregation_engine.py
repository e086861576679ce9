"""Cycle/throughput accounting of the switch-side aggregation engine."""

import pytest

from repro.core import ErrorBound
from repro.hardware import (
    BURST_BITS,
    DEFAULT_CLOCK_HZ,
    PIPELINE_DEPTH,
    AggregationEngine,
    AggregationStats,
    CompressionEngine,
)


def _bursts(nbytes):
    return -(-(nbytes * 8) // BURST_BITS)


def test_reduce_cycles_are_bursts_plus_pipeline_drain():
    engine = AggregationEngine()
    stats = engine.reduce([1024, 1024], output_nbytes=1024)
    assert stats.fan_in == 2
    assert stats.bytes_in == 2048
    assert stats.bytes_out == 1024
    assert stats.cycles == _bursts(1024) * 2 + PIPELINE_DEPTH


def test_partial_bursts_round_up():
    stats = AggregationEngine().reduce([1], 1)
    assert stats.cycles == 1 + PIPELINE_DEPTH


def test_totals_accumulate_across_reductions():
    engine = AggregationEngine()
    engine.reduce([512, 512], 512)
    engine.reduce([512, 512, 512], 512)
    assert engine.total_reductions == 2
    assert engine.total_bytes_in == 512 * 5
    assert engine.total_bytes_out == 1024
    assert engine.total_cycles == (
        _bursts(512) * 5 + 2 * PIPELINE_DEPTH
    )


def test_elapsed_and_throughput_follow_the_clock():
    engine = AggregationEngine()
    nominal = engine.throughput_bps()
    stats = engine.reduce([BURST_BITS // 8] * 2, BURST_BITS // 8)
    assert stats.elapsed_s() == stats.cycles / DEFAULT_CLOCK_HZ
    assert engine.elapsed_s() == engine.total_cycles / DEFAULT_CLOCK_HZ
    assert engine.throughput_bps() == nominal == 32 * DEFAULT_CLOCK_HZ


def test_throughput_unit_is_nominal_bytes_per_s():
    # One unit for one name: bytes/s of operand data, idle or busy.
    engine = AggregationEngine()
    assert engine.throughput_bps() == 32 * DEFAULT_CLOCK_HZ
    nic_engine = CompressionEngine(ErrorBound(10))
    assert engine.throughput_bps() == nic_engine.throughput_bps()


def test_default_clock_matches_compression_engines():
    nic_engine = CompressionEngine(ErrorBound(10))
    assert AggregationEngine().clock_hz == nic_engine.clock_hz == DEFAULT_CLOCK_HZ


def test_validation():
    engine = AggregationEngine()
    with pytest.raises(ValueError):
        engine.reduce([], 0)
    with pytest.raises(ValueError):
        engine.reduce([-1], 0)
    with pytest.raises(ValueError):
        engine.reduce([1], -1)


def test_stats_are_frozen():
    stats = AggregationStats(fan_in=2, bytes_in=8, bytes_out=4, cycles=5)
    with pytest.raises(AttributeError):
        stats.cycles = 6
