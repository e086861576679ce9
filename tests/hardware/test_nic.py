"""NIC datapath tests: ToS classification, message segmentation, counters."""

import numpy as np
import pytest

from repro.core import DEFAULT_BOUND, ErrorBound, inceptionn_profile, profile_for
from repro.hardware import InceptionnNic
from repro.network import TOS_COMPRESS, TOS_DEFAULT, Packet
from repro.transport import ClusterComm, ClusterConfig

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
    out = nic.transmit([pkt])[0]
    assert len(out.payload) < len(data)
    assert nic.counters.tx_compressed == 1


def test_default_tos_bypasses():
    nic = _nic()
    data = _gradients(100).tobytes()
    pkt = Packet(src=0, dst=1, tos=TOS_DEFAULT, payload=data)
    out = nic.transmit([pkt])[0]
    assert out is pkt
    assert nic.counters.tx_bypassed == 1
    assert nic.counters.tx_compressed == 0


def test_disabled_nic_never_compresses():
    nic = _nic(enabled=False)
    pkt = Packet(src=0, dst=1, tos=TOS_COMPRESS, payload=_gradients(64).tobytes())
    out = nic.transmit([pkt])[0]
    assert out is pkt


def test_tx_rx_roundtrip_single_packet():
    tx_nic, rx_nic = _nic(0), _nic(1)
    values = _gradients(256)
    pkt = Packet(src=0, dst=1, tos=TOS_COMPRESS, payload=values.tobytes())
    wire = tx_nic.transmit([pkt])[0]
    restored = rx_nic.receive([wire])[0]
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


def test_context_preserved_through_compression():
    tx_nic, rx_nic = _nic(0), _nic(1)
    marker = {"block": 3}
    pkt = Packet(
        src=0, dst=1, tos=TOS_COMPRESS, payload=_gradients(64).tobytes(),
        context=marker,
    )
    wire = tx_nic.transmit([pkt])[0]
    restored = rx_nic.receive([wire])[0]
    assert restored.context is marker


@pytest.mark.parametrize("blocks", [1, 2, 8, 16])
@pytest.mark.parametrize("codec", [None, "inceptionn"])
def test_cluster_config_timing_equals_the_functional_nics(blocks, codec):
    # nic_timing() is the one engine-to-timing conversion: it equals the
    # functional NIC's engine and is what every engine stage runs at.
    config = ClusterConfig(
        num_nodes=3,
        engine_blocks=blocks,
        profile=profile_for(codec) if codec else None,
    )
    timing = config.nic_timing()
    engine = config.build_nic(0).compressor
    assert timing.engine_throughput_bps == engine.throughput_bps()
    assert timing.engine_latency_s == engine.latency_s()
    # 32-byte bursts at 100 MHz, one per ceil(8 / blocks) cycles; a
    # 4-cycle fill.
    assert timing.engine_throughput_bps == pytest.approx(
        32 * 100e6 / -(-8 // blocks)
    )
    assert timing.engine_latency_s == pytest.approx(4 / 100e6)
    # Engine stages exist exactly when a profile is configured.
    network = ClusterComm(config).network
    links = [*network._tx_engines.values(), *network._rx_engines.values()]
    assert len(links) == (2 * config.num_nodes if codec else 0)
    for link in links:
        assert link.bandwidth_bps == timing.engine_throughput_bps * 8
        assert link.latency_s == timing.engine_latency_s
    # The default 100 MHz engine: 3.2 GB/s at 8 blocks, 0.8 GB/s at 2.
    default = ClusterConfig(num_nodes=2, profile=profile_for(codec) if codec else None)
    assert default.nic_timing().engine_throughput_bps == pytest.approx(3.2e9)
    narrow = ClusterConfig(num_nodes=2, engine_blocks=2)
    assert narrow.nic_timing().engine_throughput_bps == pytest.approx(0.8e9)


def test_cluster_nics_run_at_the_stream_bound():
    six = ClusterConfig(num_nodes=2, profile=inceptionn_profile(ErrorBound(6)))
    assert six.build_nic(0).bound == ErrorBound(6)
    spelled = ClusterConfig(num_nodes=2, profile=profile_for("inceptionn", bound=6))
    assert spelled.build_nic(1).bound == ErrorBound(6)
    # Other codecs' ToS never engages the INCEPTIONN pair.
    other = ClusterConfig(num_nodes=2, profile=profile_for("truncation"))
    assert other.build_nic(0).bound == DEFAULT_BOUND
