"""Snappy-like and SZ-like baseline codec tests."""

import numpy as np
import pytest

from repro.baselines import snappy_like, sz_like


def _snappy_ratio(data: bytes) -> float:
    return len(data) / len(snappy_like.compress(data))


def _sz_ratio(values: np.ndarray, bound: float) -> float:
    return values.nbytes / len(sz_like.compress(values, bound))


class TestSnappyLike:
    def test_roundtrip_text(self):
        data = b"the quick brown fox jumps over the lazy dog " * 50
        assert snappy_like.decompress(snappy_like.compress(data)) == data

    def test_roundtrip_empty(self):
        assert snappy_like.decompress(snappy_like.compress(b"")) == b""

    def test_roundtrip_short(self):
        for data in (b"a", b"ab", b"abc"):
            assert snappy_like.decompress(snappy_like.compress(data)) == data

    def test_roundtrip_random_bytes(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, 10_000, dtype=np.uint8).tobytes()
        assert snappy_like.decompress(snappy_like.compress(data)) == data

    def test_roundtrip_float_gradients(self):
        rng = np.random.default_rng(1)
        values = (rng.standard_normal(5000) * 0.1).astype(np.float32)
        data = values.tobytes()
        assert snappy_like.decompress(snappy_like.compress(data)) == data

    def test_repetitive_data_compresses_well(self):
        data = b"\x00" * 100_000
        assert _snappy_ratio(data) > 10

    def test_random_floats_barely_compress(self):
        # The paper's premise: lossless compression of dense float
        # gradients yields poor ratios (~1.5 at best, often ~1).
        rng = np.random.default_rng(2)
        values = rng.standard_normal(20_000).astype(np.float32)
        ratio = _snappy_ratio(values.tobytes())
        assert ratio < 1.6

    def test_sparse_gradients_compress(self):
        values = np.zeros(10_000, dtype=np.float32)
        values[::100] = 0.5
        assert _snappy_ratio(values.tobytes()) > 5

    def test_self_overlapping_copy(self):
        data = b"ab" * 1000  # forces overlapping match copies
        assert snappy_like.decompress(snappy_like.compress(data)) == data

    def test_corrupt_stream_rejected(self):
        blob = snappy_like.compress(b"hello world, hello world, hello")
        with pytest.raises(ValueError):
            snappy_like.decompress(blob[:-2])


class TestSZLike:
    @pytest.mark.parametrize("bound", [2**-10, 2**-8, 2**-6])
    def test_error_bounded_roundtrip(self, bound):
        rng = np.random.default_rng(0)
        values = (rng.standard_normal(5000) * 0.2).astype(np.float32)
        out = sz_like.decompress(sz_like.compress(values, bound), bound)
        assert np.max(np.abs(out - values)) <= bound * 1.001

    def test_smooth_data_compresses_well(self):
        # SZ's strength: predictable series collapse to tiny codes.
        t = np.linspace(0, 10, 50_000).astype(np.float32)
        smooth = np.sin(t) * 0.1
        assert _sz_ratio(smooth, 2**-10) > 6

    def test_gradientlike_data_ratio(self):
        rng = np.random.default_rng(1)
        values = (rng.standard_normal(20_000) * 0.01).astype(np.float32)
        ratio = _sz_ratio(values, 2**-8)
        assert ratio > 2.0

    def test_relaxed_bound_improves_ratio(self):
        rng = np.random.default_rng(2)
        values = (rng.standard_normal(10_000) * 0.05).astype(np.float32)
        tight = _sz_ratio(values, 2**-12)
        relaxed = _sz_ratio(values, 2**-6)
        assert relaxed > tight

    def test_large_jumps_use_escape(self):
        values = np.array([0.0, 1e6, -1e6, 0.5], dtype=np.float32)
        bound = 2**-10
        out = sz_like.decompress(sz_like.compress(values, bound), bound)
        np.testing.assert_allclose(out, values, atol=bound)

    def test_nonfinite_values_survive(self):
        values = np.array([0.1, np.inf, np.nan, -0.1], dtype=np.float32)
        bound = 2**-8
        out = sz_like.decompress(sz_like.compress(values, bound), bound)
        assert out[1] == np.inf and np.isnan(out[2])
        assert abs(out[3] + 0.1) <= bound

    def test_empty_input(self):
        out = sz_like.decompress(sz_like.compress(np.array([], dtype=np.float32), 0.01), 0.01)
        assert out.size == 0

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            sz_like.compress(np.zeros(4, dtype=np.float32), 0.0)
        with pytest.raises(ValueError):
            sz_like.decompress(b"\x00\x00\x00\x00", -1.0)

    def test_truncated_blob_rejected(self):
        with pytest.raises(ValueError):
            sz_like.decompress(b"\x01", 0.01)
