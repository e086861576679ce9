"""NIC datapath tests: ToS classification, message segmentation, counters."""

import numpy as np
import pytest

from repro.core import ErrorBound, profile_for
from repro.hardware import InceptionnNic, timing_model_for
from repro.network import TOS_COMPRESS, TOS_DEFAULT, Packet
from repro.transport import ClusterConfig

BOUND = ErrorBound(10)


def _nic(node=0, enabled=True, **kwargs):
    return InceptionnNic(node, BOUND, enabled=enabled, **kwargs)


def _gradients(n, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) * 0.3).astype(np.float32)


def test_tos_match_triggers_compression():
    nic = _nic()
    data = _gradients(365).tobytes()  # 1460 bytes, exactly one MSS
    pkt = Packet(src=0, dst=1, tos=TOS_COMPRESS, payload=data)
    out = nic.process_tx(pkt)
    assert len(out.payload) < len(data)
    assert nic.counters.tx_compressed == 1


def test_default_tos_bypasses():
    nic = _nic()
    data = _gradients(100).tobytes()
    pkt = Packet(src=0, dst=1, tos=TOS_DEFAULT, payload=data)
    out = nic.process_tx(pkt)
    assert out is pkt
    assert nic.counters.tx_bypassed == 1
    assert nic.counters.tx_compressed == 0


def test_disabled_nic_never_compresses():
    nic = _nic(enabled=False)
    pkt = Packet(src=0, dst=1, tos=TOS_COMPRESS, payload=_gradients(64).tobytes())
    out = nic.process_tx(pkt)
    assert out is pkt


def test_tx_rx_roundtrip_single_packet():
    tx_nic, rx_nic = _nic(0), _nic(1)
    values = _gradients(256)
    pkt = Packet(src=0, dst=1, tos=TOS_COMPRESS, payload=values.tobytes())
    wire = tx_nic.process_tx(pkt)
    restored = rx_nic.process_rx(wire)
    out = np.frombuffer(restored.payload, dtype=np.float32)
    assert np.max(np.abs(out - values)) < BOUND.bound
    assert rx_nic.counters.rx_decompressed == 1


def test_message_level_roundtrip_multi_packet():
    tx_nic, rx_nic = _nic(0), _nic(1)
    values = _gradients(10_000, seed=3)
    wire_packets = tx_nic.transmit_message(values.tobytes(), dst=1, tos=TOS_COMPRESS)
    assert len(wire_packets) > 1
    restored = rx_nic.receive_message(wire_packets)
    out = np.frombuffer(restored, dtype=np.float32)
    assert out.shape == values.shape
    assert np.max(np.abs(out - values)) < BOUND.bound


def test_out_of_order_packets_reassemble():
    tx_nic, rx_nic = _nic(0), _nic(1)
    values = _gradients(5000, seed=4)
    packets = tx_nic.transmit_message(values.tobytes(), dst=1, tos=TOS_COMPRESS)
    shuffled = list(reversed(packets))
    restored = rx_nic.receive_message(shuffled)
    out = np.frombuffer(restored, dtype=np.float32)
    assert np.max(np.abs(out - values)) < BOUND.bound


def test_uncompressed_message_passes_untouched():
    tx_nic, rx_nic = _nic(0), _nic(1)
    data = bytes(range(256)) * 10
    packets = tx_nic.transmit_message(data, dst=1, tos=TOS_DEFAULT)
    assert rx_nic.receive_message(packets) == data


def test_compression_ratio_counter():
    nic = _nic()
    values = np.zeros(8 * 365, dtype=np.float32)  # maximally compressible
    nic.transmit_message(values.tobytes(), dst=1, tos=TOS_COMPRESS)
    assert nic.counters.tx_compression_ratio == pytest.approx(16.0, rel=0.01)


def test_size_only_packet_rejected_by_bit_exact_path():
    nic = _nic()
    pkt = Packet(src=0, dst=1, tos=TOS_COMPRESS, payload_nbytes=1460)
    with pytest.raises(ValueError):
        nic.process_tx(pkt)
    with pytest.raises(ValueError):
        nic.process_rx(pkt)


def test_context_preserved_through_compression():
    tx_nic, rx_nic = _nic(0), _nic(1)
    marker = {"block": 3}
    pkt = Packet(
        src=0, dst=1, tos=TOS_COMPRESS, payload=_gradients(64).tobytes(),
        context=marker,
    )
    wire = tx_nic.process_tx(pkt)
    restored = rx_nic.process_rx(wire)
    assert restored.context is marker


def test_timing_model_export():
    nic = _nic()
    model = timing_model_for(nic)
    assert model.compression
    assert model.engine_throughput_bps == pytest.approx(3.2e9)
    narrow = _nic(num_blocks=2)
    assert timing_model_for(narrow).engine_throughput_bps == pytest.approx(0.8e9)


@pytest.mark.parametrize("blocks", [2, 8])
@pytest.mark.parametrize("codec", [None, "inceptionn"])
def test_cluster_config_timing_equals_the_functional_nics(blocks, codec):
    # ClusterConfig.nic_timing() skips building a NIC; same numbers.
    config = ClusterConfig(
        num_nodes=2,
        engine_blocks=blocks,
        engine_clock_hz=125e6,
        profile=profile_for(codec) if codec else None,
    )
    assert config.nic_timing() == timing_model_for(config.build_nic(0))
    if codec and blocks == 8:
        default = ClusterConfig(num_nodes=2, profile=profile_for(codec))
        assert default.nic_timing() == timing_model_for(InceptionnNic(0, BOUND))
