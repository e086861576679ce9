"""Packet model tests."""

import pytest

from repro.network import (
    HEADER_BYTES,
    TOS_COMPRESS,
    Packet,
    packet_count,
    segment_bytes,
)


def test_wire_size_includes_headers():
    pkt = Packet(src=0, dst=1, payload=b"x" * 100)
    assert pkt.wire_nbytes == HEADER_BYTES + 100


def test_compressible_flag_follows_tos():
    assert Packet(src=0, dst=1, tos=TOS_COMPRESS).compressible
    assert not Packet(src=0, dst=1, tos=0).compressible


def test_payload_size_consistency_enforced():
    with pytest.raises(ValueError):
        Packet(src=0, dst=1, payload=b"abc", payload_nbytes=5)


def test_size_only_packet():
    pkt = Packet(src=0, dst=1, payload_nbytes=1460)
    assert pkt.payload is None
    assert pkt.wire_nbytes == HEADER_BYTES + 1460


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        Packet(src=0, dst=1, payload_nbytes=-1)


def test_tos_range_checked():
    with pytest.raises(ValueError):
        Packet(src=0, dst=1, tos=0x100)


def test_segment_bytes_reassembles():
    data = bytes(range(256)) * 20  # 5120 bytes
    packets = segment_bytes(data, src=0, dst=1, mss=1460)
    assert len(packets) == 4
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


def test_bad_mss_rejected():
    with pytest.raises(ValueError):
        segment_bytes(b"x", src=0, dst=1, mss=0)
