"""Hypothesis fuzz of the bulk wire kernels against the scalar reference.

Arbitrary tag lanes (all four classes, garbage above the payload width,
ragged final group): ``pack`` equals the BitWriter reference byte for
byte, ``scan`` + ``unpack`` equal the BitReader reference; damaged
streams raise ``EOFError``/``ValueError`` or decode to exactly
``num_values`` lanes — never ``IndexError``, never mis-sized.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompressedGradients, ErrorBound
from repro.core.container import (
    GROUP_SIZE,
    pack_group_records,
    scan_group_offsets,
    stray_padding_lanes,
    unpack_group_records,
)
from repro.core.tags import PAYLOAD_BITS, TAG_BIT8, TAG_BIT16, TAG_NO_COMPRESS

from . import reference_wire

BOUND = ErrorBound(10)

lanes = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2**32 - 1)), min_size=0, max_size=100
)


def _arrays(lane_list):
    tags = np.array([tag for tag, _ in lane_list], dtype=np.uint8)
    payloads = np.array([payload for _, payload in lane_list], dtype=np.uint32)
    return tags, payloads


def _wire_lanes(lane_list):
    """What a decoder sees: whole groups, payloads cut to their width."""
    pad = -len(lane_list) % GROUP_SIZE
    tags = [tag for tag, _ in lane_list] + [0] * pad
    payloads = [
        payload & ((1 << PAYLOAD_BITS[tag]) - 1) for tag, payload in lane_list
    ] + [0] * pad
    return tags, payloads


@given(lanes)
@settings(max_examples=150, deadline=None)
def test_pack_scan_unpack_match_the_bit_serial_reference(lane_list):
    tags, payloads = _arrays(lane_list)
    want_data, want_offsets = reference_wire.pack(tags, payloads)
    data, offsets = pack_group_records(tags, payloads)
    assert data == want_data
    assert offsets.tolist() == want_offsets

    read_offsets, read_tags, read_payloads = reference_wire.unpack(data)
    assert read_offsets == want_offsets
    scanned, counts = scan_group_offsets(data)
    assert scanned.tolist() == want_offsets and counts.tolist() == [len(offsets) - 1]
    got_tags, got_payloads = unpack_group_records(data, scanned)
    assert got_tags.dtype == np.uint8 and got_payloads.dtype == np.uint32
    assert (got_tags.tolist(), got_payloads.tolist()) == (read_tags, read_payloads)
    assert (read_tags, read_payloads) == _wire_lanes(lane_list)


@given(st.lists(st.tuples(lanes, st.booleans()), min_size=0, max_size=6))
@settings(max_examples=100, deadline=None)
def test_scan_with_stream_starts_equals_one_scan_per_stream(streams):
    # Streams laid end to end, some ending on one byte of bit padding.
    blobs = [
        pack_group_records(*_arrays(lane_list))[0] + (b"\xff" if slack else b"")
        for lane_list, slack in streams
    ]
    starts = np.cumsum([0] + [len(blob) for blob in blobs[:-1]])[: len(blobs)]
    offsets, counts = scan_group_offsets(b"".join(blobs), starts=starts)
    want_offsets, want_counts = [], []
    for start, blob in zip(starts.tolist(), blobs):
        alone, (count,) = scan_group_offsets(blob)
        want_offsets += (alone + start).tolist()
        want_counts.append(int(count))
    assert offsets.tolist() == want_offsets
    assert counts.tolist() == want_counts


@given(lanes, st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_scan_stops_after_max_groups(lane_list, max_groups):
    data, offsets = pack_group_records(*_arrays(lane_list))
    scanned, (count,) = scan_group_offsets(data, max_groups=max_groups)
    assert count == min(max_groups, len(offsets) - 1)
    assert scanned.tolist() == offsets[: count + 1].tolist()


@given(lanes, reference_wire.damage, st.integers(-3, 3))
@settings(max_examples=300, deadline=None)
def test_from_bytes_raises_or_returns_exactly_num_values(lane_list, how, skew):
    data = reference_wire.damaged(pack_group_records(*_arrays(lane_list))[0], how)
    num_values = len(lane_list) + skew
    try:
        parsed = CompressedGradients.from_bytes(data, num_values, BOUND)
    except (EOFError, ValueError):
        return
    assert len(parsed.tags) == len(parsed.payloads) == num_values
    # Whatever decoded is what the bit-serial reader finds in the damage.
    _, read_tags, read_payloads = reference_wire.unpack(data)
    assert parsed.tags.tolist() == read_tags[:num_values]
    assert parsed.payloads.tolist() == read_payloads[:num_values]
    assert not any(read_tags[num_values:])


@pytest.mark.parametrize("num_values", [-1, -9, -100])
def test_from_bytes_rejects_negative_num_values(num_values):
    data, _ = pack_group_records(*_arrays([(TAG_BIT16, 7)] * 16))
    with pytest.raises(ValueError, match="negative"):
        CompressedGradients.from_bytes(data, num_values, BOUND)


def test_from_bytes_rejects_a_tagged_padding_lane():
    # A BIT8 pad with payload 0 decodes to +0.0; it is still not padding.
    data, _ = pack_group_records(*_arrays([(TAG_BIT16, 7)] * 3 + [(TAG_BIT8, 0)]))
    assert len(CompressedGradients.from_bytes(data, 4, BOUND)) == 4
    with pytest.raises(ValueError, match="padding"):
        CompressedGradients.from_bytes(data, 3, BOUND)


def test_stray_padding_lanes_names_the_offenders():
    tags = np.array([1, 0, 0, 0, 0, 0, 2, 0] + [3] * 8 + [0] * 7 + [1], dtype=np.uint8)
    stops = np.array([8, 16, 24])
    assert stray_padding_lanes(tags, stops, np.array([1, 8, 0])).tolist() == [6, 23]
    assert stray_padding_lanes(tags, stops, np.array([7, 8, 8])).size == 0


def test_to_bytes_rejects_tags_wider_than_two_bits():
    cg = CompressedGradients(
        tags=np.array([0, 4, 1], dtype=np.uint8),
        payloads=np.zeros(3, dtype=np.uint32),
        bound=BOUND,
    )
    with pytest.raises(ValueError, match="2-bit"):
        cg.to_bytes()


def test_unpack_rejects_offsets_that_are_not_the_records_own():
    lane_list = [(TAG_NO_COMPRESS, 0xDEADBEEF), (TAG_BIT8, 0x7F)] * 12
    data, offsets = pack_group_records(*_arrays(lane_list))
    unpack_group_records(data, offsets)
    shifted = offsets.copy()
    shifted[1] += 1  # inside the buffer, but not where record 1 starts
    beyond = offsets + len(data)
    negative = offsets - 1
    overlapping = offsets[[0, 1, 1, 3]]
    for bad in (shifted, beyond, negative, overlapping):
        with pytest.raises(ValueError, match="offsets"):
            unpack_group_records(data, bad)
