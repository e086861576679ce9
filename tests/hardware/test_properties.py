"""Hypothesis property tests on the hardware engine models."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ErrorBound, compress
from repro.hardware import CompressionEngine, DecompressionEngine, DecompressionError

from ..core.reference_wire import damage, damaged
from .structural_model import decompress_structural

bounds = st.integers(min_value=1, max_value=15).map(ErrorBound)

float_lists = st.lists(
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=120,
)


@given(float_lists, bounds)
@settings(max_examples=60, deadline=None)
def test_engine_bitstream_matches_software(values, bound):
    arr = np.array(values, dtype=np.float32)
    hw_stream, _ = CompressionEngine(bound).compress(arr.tobytes())
    assert hw_stream == compress(arr, bound).to_bytes()


@given(float_lists, bounds)
@settings(max_examples=60, deadline=None)
def test_hardware_roundtrip_respects_bound(values, bound):
    arr = np.array(values, dtype=np.float32)
    stream, _ = CompressionEngine(bound).compress(arr.tobytes())
    restored, _ = DecompressionEngine(bound).decompress(
        stream, num_values=arr.size
    )
    out = np.frombuffer(restored, dtype=np.float32)
    for original, recon in zip(arr, out):
        if abs(original) >= 1.0:
            assert recon == original
        else:
            assert abs(recon - original) < bound.bound


@given(float_lists, bounds, st.integers(min_value=1, max_value=16))
@settings(max_examples=40, deadline=None)
def test_engine_width_never_changes_bits(values, bound, width):
    arr = np.array(values, dtype=np.float32)
    wide, _ = CompressionEngine(bound, num_blocks=8).compress(arr.tobytes())
    narrow, _ = CompressionEngine(bound, num_blocks=width).compress(arr.tobytes())
    assert wide == narrow


@given(float_lists, bounds)
@settings(max_examples=40, deadline=None)
def test_burst_straddling_groups_decode(values, bound):
    # Compressed groups freely straddle 256-bit beat boundaries; the
    # burst buffer must reassemble them regardless of where they fall.
    arr = np.array(values, dtype=np.float32)
    stream, cstats = CompressionEngine(bound).compress(arr.tobytes())
    _, dstats = DecompressionEngine(bound).decompress(stream, num_values=arr.size)
    assert dstats.bursts_out == -(-arr.size // 8)


@given(
    st.lists(
        st.floats(width=32, allow_nan=False, allow_infinity=False,
                  min_value=-0.875, max_value=0.875),
        min_size=8,
        max_size=64,
    ),
    bounds,
)
@settings(max_examples=40, deadline=None)
def test_compressed_stream_never_expands_past_34_bits_per_value(values, bound):
    arr = np.array(values, dtype=np.float32)
    stream, _ = CompressionEngine(bound).compress(arr.tobytes())
    groups = -(-arr.size // 8)
    assert len(stream) * 8 <= groups * 16 + arr.size * 32 + 8


any_float_bits = st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=120)


@given(any_float_bits, bounds, damage, st.none() | st.integers(-3, 3))
@settings(max_examples=300, deadline=None)
def test_damaged_streams_raise_or_decode_like_the_structural_model(
    words, bound, how, skew
):
    values = np.array(words, dtype=np.uint32).view(np.float32)
    stream, _ = CompressionEngine(bound).compress(values.tobytes())
    stream = damaged(stream, how)
    num_values = None if skew is None else values.size + skew
    engine = DecompressionEngine(bound)
    try:
        want, want_stats = decompress_structural(stream, bound, num_values)
    except DecompressionError:
        want = None
    try:
        got, stats = engine.decompress(stream, num_values)
    except DecompressionError:  # a ValueError; anything else fails the test
        assert want is None
        assert engine.total_cycles == engine.total_groups == 0
        return
    assert want is not None and stats == want_stats
    if num_values is not None:
        assert len(got) == 4 * num_values
    got_words, want_words = (np.frombuffer(raw, dtype="<u4") for raw in (got, want))
    # The oracle's blocks pass values through Python floats, which quiets
    # a signalling NaN; the engine keeps NO_COMPRESS words untouched.
    differ = got_words != want_words
    assert np.isnan(got_words.view("<f4")[differ]).all()
    assert np.isnan(want_words.view("<f4")[differ]).all()
