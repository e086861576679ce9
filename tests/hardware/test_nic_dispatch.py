"""NIC dispatch: the codec registry is the one table of engine-eligible ToS.

At message granularity every stream that names a codec is compressed
under that codec's registered byte; the per-packet datapath engages
only the INCEPTIONN pair at ``0x28`` and bypasses every other byte,
registered or not.
"""

import numpy as np

from repro.core import ErrorBound, profile_for
from repro.hardware import InceptionnNic
from repro.network.packet import TOS_COMPRESS, TOS_DEFAULT, Packet
from repro.transport.wire import build_wire_message

BOUND = ErrorBound(10)
SNAPPY = profile_for("snappy_like")
SNAPPY_TOS = SNAPPY.tos


def _nic(enabled=True):
    return InceptionnNic(node_id=0, bound=BOUND, enabled=enabled)


def _assert_bypasses(nic, tos):
    pkt = Packet(src=0, dst=1, seq=0, tos=tos, payload=b"\x00" * 64)
    before = (nic.counters.tx_bypassed, nic.counters.rx_bypassed)
    assert nic.transmit([pkt])[0] is pkt
    assert nic.receive([pkt])[0] is pkt
    after = (nic.counters.tx_bypassed, nic.counters.rx_bypassed)
    assert after == (before[0] + 1, before[1] + 1)


def _build(stream):
    values = np.linspace(-1.0, 1.0, 256, dtype=np.float32)
    return build_wire_message(0, 1, stream=stream, array=values)


def test_inceptionn_engine_preinstalled_at_0x28():
    assert _build(profile_for("inceptionn")).tos == TOS_COMPRESS
    assert _build(None).tos == TOS_DEFAULT
    nic = _nic()
    pkt = Packet(src=0, dst=1, seq=0, tos=TOS_COMPRESS, payload=b"\x00" * 64)
    assert nic.transmit([pkt])[0] is not pkt
    assert nic.counters.tx_compressed == 1


def test_registered_codec_tos_dispatches_at_message_granularity():
    assert SNAPPY_TOS != TOS_COMPRESS
    msg = _build(SNAPPY)
    assert msg.compressed and msg.tos == SNAPPY_TOS


def test_disabled_nic_dispatches_nothing():
    nic = _nic(enabled=False)
    for stream in (profile_for("inceptionn"), SNAPPY):
        pkt = Packet(src=0, dst=1, seq=0, tos=stream.tos, payload=b"\x00" * 64)
        assert nic.transmit([pkt])[0] is pkt
    assert nic.counters.tx_compressed == 0


def test_unregistered_tos_bypasses_identically():
    _assert_bypasses(_nic(), 0x77)


def test_registered_non_inceptionn_tos_bypasses_per_packet():
    # The stream's own codec does that byte work in transport.wire;
    # the packet engines never see it.
    nic = _nic()
    _assert_bypasses(nic, SNAPPY_TOS)
    assert nic.counters.tx_compressed == nic.counters.rx_decompressed == 0


def test_disabled_nic_bypasses_registered_tos():
    nic = _nic(enabled=False)
    _assert_bypasses(nic, TOS_COMPRESS)
    _assert_bypasses(nic, SNAPPY_TOS)


def test_inceptionn_path_still_works_alongside():
    tx = _nic()
    rx = _nic()
    rng = np.random.default_rng(2)
    values = (rng.standard_normal(365) * 0.004).astype(np.float32)
    packets = tx.transmit_message(values.tobytes(), dst=1, tos=TOS_COMPRESS)
    assert tx.counters.tx_compressed == len(packets)
    restored = np.frombuffer(rx.receive_message(packets), dtype=np.float32)
    assert float(np.max(np.abs(restored - values))) <= BOUND.bound
