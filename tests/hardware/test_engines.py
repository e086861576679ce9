"""Engine tests: bit-exactness against the software codec, cycle model."""

import numpy as np
import pytest

from repro.core import ErrorBound, compress, decompress
from repro.hardware import (
    AggregationEngine,
    BurstEngine,
    BurstError,
    CompressionEngine,
    DecompressionEngine,
    DecompressionError,
)

from .structural_model import (
    TagDecoder,
    compress_structural,
    decompress_structural,
)

BOUND = ErrorBound(10)


def _gradient_bytes(n, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    values = (rng.standard_normal(n) * scale).astype(np.float32)
    return values, values.tobytes()


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 100, 1000])
def test_compressor_matches_software_codec(n):
    values, payload = _gradient_bytes(n)
    engine = CompressionEngine(BOUND)
    hw_stream, stats = engine.compress(payload)
    sw_stream = compress(values, BOUND).to_bytes()
    assert hw_stream == sw_stream
    assert stats.bursts_in == -(-n // 8)


@pytest.mark.parametrize("exp", [6, 8, 10])
def test_compressor_matches_across_bounds(exp):
    bound = ErrorBound(exp)
    values, payload = _gradient_bytes(500, seed=exp)
    hw_stream, _ = CompressionEngine(bound).compress(payload)
    assert hw_stream == compress(values, bound).to_bytes()


@pytest.mark.parametrize("n", [1, 8, 9, 100, 1000])
def test_decompressor_roundtrip(n):
    values, payload = _gradient_bytes(n, seed=n)
    stream, _ = CompressionEngine(BOUND).compress(payload)
    restored, stats = DecompressionEngine(BOUND).decompress(stream, num_values=n)
    expected = decompress(compress(values, BOUND)).tobytes()
    assert restored == expected


def test_decompressor_without_length_pads_to_group():
    values, payload = _gradient_bytes(3)
    stream, _ = CompressionEngine(BOUND).compress(payload)
    restored, _ = DecompressionEngine(BOUND).decompress(stream)
    assert len(restored) == 8 * 4  # whole group
    as_floats = np.frombuffer(restored, dtype=np.float32)
    assert np.all(as_floats[3:] == 0.0)


def test_decompressor_rejects_truncated_stream():
    _, payload = _gradient_bytes(64)
    stream, _ = CompressionEngine(BOUND).compress(payload)
    with pytest.raises(DecompressionError):
        DecompressionEngine(BOUND).decompress(stream[:-3], num_values=64)


def test_decompressor_rejects_impossible_length():
    _, payload = _gradient_bytes(8)
    stream, _ = CompressionEngine(BOUND).compress(payload)
    with pytest.raises(DecompressionError):
        DecompressionEngine(BOUND).decompress(stream, num_values=999)


def test_misaligned_payload_rejected():
    with pytest.raises(BurstError):
        CompressionEngine(BOUND).compress(b"\x00" * 7)


def test_empty_payload():
    engine = CompressionEngine(BOUND)
    stream, stats = engine.compress(b"")
    assert stream == b""
    assert stats.cycles == 0
    restored, _ = DecompressionEngine(BOUND).decompress(b"")
    assert restored == b""


def test_tag_decoder_sizes():
    # tags: lane0=NO_COMPRESS(32) lane1=BIT16(16) lane2=BIT8(8) rest ZERO
    tag_word = 0b11 | (0b10 << 2) | (0b01 << 4)
    assert TagDecoder.group_payload_bits(tag_word) == 56
    assert TagDecoder.decode(tag_word)[:3] == [0b11, 0b10, 0b01]


def test_cycle_count_scales_with_bursts():
    _, payload = _gradient_bytes(8 * 100)
    engine = CompressionEngine(BOUND)
    _, stats = engine.compress(payload)
    assert stats.bursts_in == 100
    assert stats.cycles == 100 + 4  # one burst per cycle + pipeline fill


def test_narrow_engine_needs_more_cycles():
    _, payload = _gradient_bytes(8 * 100)
    wide, _ = CompressionEngine(BOUND, num_blocks=8).compress(payload)
    narrow_engine = CompressionEngine(BOUND, num_blocks=2)
    narrow, stats = narrow_engine.compress(payload)
    assert narrow == wide  # functionality unchanged
    assert stats.cycles == 100 * 4 + 4
    assert narrow_engine.throughput_bps() == pytest.approx(32 * 100e6 / 4)


def test_invalid_block_count_rejected():
    with pytest.raises(ValueError):
        CompressionEngine(BOUND, num_blocks=0)
    with pytest.raises(ValueError):
        DecompressionEngine(BOUND, num_blocks=-1)


def test_stats_elapsed_time():
    _, payload = _gradient_bytes(8 * 50)
    _, stats = CompressionEngine(BOUND).compress(payload)
    assert stats.elapsed_s() == pytest.approx(stats.cycles / 100e6)


def test_extreme_values_survive_hardware_path():
    values = np.array(
        [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e-40, 1.0, -1.0], dtype=np.float32
    )
    stream, _ = CompressionEngine(BOUND).compress(values.tobytes())
    restored, _ = DecompressionEngine(BOUND).decompress(stream, num_values=8)
    out = np.frombuffer(restored, dtype=np.float32)
    assert out[0] == np.inf and out[1] == -np.inf and np.isnan(out[2])
    assert out[6] == 1.0 and out[7] == -1.0


def test_burst_engine_charge_reproduces_every_engines_cycles():
    """One rule: bursts * beats + pipeline, accumulated."""
    assert BurstEngine().charge(100) == 100 + 4
    narrow = BurstEngine(num_blocks=2)
    assert narrow.charge(100) == 100 * 4 + 4
    assert narrow.charge(0) == 4  # a pass always pays the pipeline drain
    assert narrow.total_cycles == 100 * 4 + 4 + 4
    # ...and the subclasses are charged by it, not by private copies.
    _, payload = _gradient_bytes(8 * 100)
    assert CompressionEngine(BOUND, num_blocks=2).compress(payload)[1].cycles == 404
    stream, _ = CompressionEngine(BOUND).compress(payload)
    assert DecompressionEngine(BOUND).decompress(stream, 800)[1].cycles == 104
    assert AggregationEngine().reduce([32 * 513], 32).cycles == 513 + 4


class TestBulkStructuralEquivalence:
    """The vectorized production paths are pinned to the burst-level oracle."""

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 100, 1000])
    @pytest.mark.parametrize("num_blocks", [8, 3])
    def test_compress_paths_agree(self, n, num_blocks):
        _, payload = _gradient_bytes(n, seed=n)
        bulk = CompressionEngine(BOUND, num_blocks=num_blocks)
        data_b, stats_b = bulk.compress(payload)
        data_s, stats_s = compress_structural(payload, BOUND, num_blocks)
        assert data_b == data_s
        assert stats_b.bursts_in == stats_s.bursts_in
        assert stats_b.bursts_out == stats_s.bursts_out
        assert stats_b.bits_out == stats_s.bits_out
        assert stats_b.cycles == stats_s.cycles
        assert bulk.total_cycles == stats_s.cycles
        assert bulk.total_bursts == stats_s.bursts_in

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 100, 1000])
    @pytest.mark.parametrize("num_blocks", [8, 3])
    def test_decompress_paths_agree(self, n, num_blocks):
        values, payload = _gradient_bytes(n, seed=n + 50)
        stream = compress(values, BOUND).to_bytes()
        bulk = DecompressionEngine(BOUND, num_blocks=num_blocks)
        data_b, stats_b = bulk.decompress(stream, num_values=n)
        data_s, stats_s = decompress_structural(stream, BOUND, n, num_blocks)
        assert data_b == data_s
        assert stats_b.bursts_in == stats_s.bursts_in
        assert stats_b.bursts_out == stats_s.bursts_out
        assert stats_b.bits_out == stats_s.bits_out
        assert stats_b.cycles == stats_s.cycles
        assert bulk.total_cycles == stats_s.cycles
        assert bulk.total_groups == stats_s.bursts_out

    def test_both_reject_nonzero_padding_lanes(self):
        values = np.full(8, 0.25, dtype=np.float32)
        stream = compress(values, BOUND).to_bytes()
        with pytest.raises(DecompressionError, match="padding"):
            DecompressionEngine(BOUND).decompress(stream, num_values=3)
        with pytest.raises(DecompressionError, match="padding"):
            decompress_structural(stream, BOUND, 3)

    def test_bulk_compress_rejects_ragged_payload(self):
        with pytest.raises(BurstError):
            CompressionEngine(BOUND).compress(b"\x00" * 7)

    def test_bulk_decompress_truncation_message_names_group(self):
        values, _ = _gradient_bytes(64, seed=9)
        stream = compress(values, BOUND).to_bytes()
        with pytest.raises(DecompressionError, match="group"):
            DecompressionEngine(BOUND).decompress(stream[:-3], num_values=64)


class TestPacketBatches:
    """A batch of payloads is one engine pass each, computed together."""

    SIZES = [0, 3, 8, 365, 0, 1000, 1]

    def _payloads(self):
        return [_gradient_bytes(n, seed=n)[1] for n in self.SIZES]

    @pytest.mark.parametrize("num_blocks", [8, 3])
    def test_compress_packets_equals_one_call_per_payload(self, num_blocks):
        batch = CompressionEngine(BOUND, num_blocks=num_blocks)
        single = CompressionEngine(BOUND, num_blocks=num_blocks)
        streams, stats = batch.compress_packets(self._payloads())
        passes = [single.compress(payload) for payload in self._payloads()]
        assert streams == [stream for stream, _ in passes]
        for field in ("bursts_in", "bursts_out", "bits_out", "cycles"):
            assert getattr(stats, field) == sum(getattr(s, field) for _, s in passes)
        assert batch.total_cycles == single.total_cycles
        assert batch.total_bursts == single.total_bursts

    @pytest.mark.parametrize("num_blocks", [8, 3])
    @pytest.mark.parametrize("slack", [b"", b"\xa5"])
    def test_decompress_packets_equals_one_call_per_stream(self, num_blocks, slack):
        streams, _ = CompressionEngine(BOUND).compress_packets(self._payloads())
        # Every other stream ends on a byte of bit padding, and every
        # third is decoded to whole groups (no value count).
        streams = [s + slack * (k % 2) for k, s in enumerate(streams)]
        wanted = [None if k % 3 == 0 else n for k, n in enumerate(self.SIZES)]
        batch = DecompressionEngine(BOUND, num_blocks=num_blocks)
        single = DecompressionEngine(BOUND, num_blocks=num_blocks)
        restored, stats = batch.decompress_packets(streams, wanted)
        passes = [single.decompress(s, n) for s, n in zip(streams, wanted)]
        assert restored == [payload for payload, _ in passes]
        for field in ("bursts_in", "bursts_out", "bits_out", "cycles"):
            assert getattr(stats, field) == sum(getattr(s, field) for _, s in passes)
        assert batch.total_cycles == single.total_cycles
        assert batch.total_groups == single.total_groups

    def test_empty_batches(self):
        assert CompressionEngine(BOUND).compress_packets([])[0] == []
        assert DecompressionEngine(BOUND).decompress_packets([], [])[0] == []

    def test_a_ragged_payload_fails_the_whole_batch(self):
        engine = CompressionEngine(BOUND)
        with pytest.raises(BurstError, match="7 bytes"):
            engine.compress_packets([b"\x00" * 8, b"\x00" * 7])
        assert engine.total_cycles == engine.total_bursts == 0

    @pytest.mark.parametrize("num_values", [-1, 4])
    def test_both_reject_a_tagged_padding_lane_and_negative_counts(self, num_values):
        # 0.001 is BIT8 at this bound: as lane 4 of 5 it decodes fine, as
        # a padding lane it is a framing error even if it decoded to 0.
        values = np.array([0.5, 0.5, 0.5, 0.5, 0.001], dtype=np.float32)
        stream = compress(values, BOUND).to_bytes()
        assert len(DecompressionEngine(BOUND).decompress(stream, 5)[0]) == 20
        with pytest.raises(DecompressionError):
            DecompressionEngine(BOUND).decompress(stream, num_values)
        with pytest.raises(DecompressionError):
            decompress_structural(stream, BOUND, num_values)
