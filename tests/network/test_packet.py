"""Packet model tests."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network import (
    DEFAULT_MSS,
    HEADER_BYTES,
    TOS_COMPRESS,
    TOS_DEFAULT,
    Packet,
    packet_count,
    segment_bytes,
)
from repro.network.packet import train_runs

from .reference_train import split_trains


def test_wire_size_includes_headers():
    pkt = Packet(src=0, dst=1, payload=b"x" * 100)
    assert pkt.wire_nbytes == HEADER_BYTES + 100


def test_compressible_flag_follows_tos():
    # The codec registry is the one table of compressible ToS bytes.
    from repro.core import available_codecs, codec_tos

    claimed = {codec_tos(name) for name in available_codecs()}
    assert Packet(src=0, dst=1, tos=TOS_COMPRESS).tos in claimed
    assert Packet(src=0, dst=1).tos == TOS_DEFAULT
    assert TOS_DEFAULT not in claimed


def test_payload_size_consistency_enforced():
    # The size is the payload's length, by construction: it cannot be
    # passed, set, or disagree with the bytes.
    pkt = Packet(src=0, dst=1, payload=b"abc")
    assert pkt.payload_nbytes == 3
    with pytest.raises(AttributeError):
        pkt.payload_nbytes = 5
    with pytest.raises(TypeError):
        Packet(src=0, dst=1, payload=b"abc", payload_nbytes=3)


def test_tos_range_checked():
    with pytest.raises(ValueError):
        Packet(src=0, dst=1, tos=0x100)


def test_segment_bytes_reassembles():
    data = bytes(range(256)) * 20  # 5120 bytes
    packets = segment_bytes(data, src=0, dst=1)
    assert DEFAULT_MSS == 1460
    assert [p.payload_nbytes for p in packets] == [1460, 1460, 1460, 740]
    assert b"".join(p.payload for p in packets) == data
    assert [p.seq for p in packets] == [0, 1, 2, 3]


def test_segment_bytes_empty_message_is_one_packet():
    packets = segment_bytes(b"", src=0, dst=1)
    assert len(packets) == 1
    assert packets[0].payload == b""


def test_packet_count():
    assert packet_count(0) == 1
    assert packet_count(1) == 1
    assert packet_count(1460) == 1
    assert packet_count(1461) == 2
    assert packet_count(233 * 2**20) == -(-233 * 2**20 // 1460)


@given(
    num_packets=st.integers(1, 3_000),
    wire=st.integers(0, 5_000_000),
    raw=st.integers(0, 5_000_000),
    train_packets=st.integers(1, 400),
)
@example(num_packets=100, wire=10, raw=25, train_packets=7)  # shares run out
@settings(max_examples=500, deadline=None)
def test_train_runs_expand_to_split_trains(num_packets, wire, raw, train_packets):
    runs = train_runs(num_packets, wire, raw, train_packets)
    expanded = [train for count, train in runs for _ in range(count)]
    assert expanded == split_trains(num_packets, wire, raw, train_packets)
    assert runs[-1][0] == 1 and all(count > 0 for count, _ in runs)
