"""Network simulator tests: routing, contention, compression timing."""

import pytest

from repro.core import inceptionn_profile
from repro.network import (
    HEADER_BYTES,
    DirectRing,
    Network,
    NicTimingModel,
    Simulation,
    SwitchedStar,
    packet_count,
)
from repro.transport import ClusterConfig
from repro.transport.wire import build_wire_message

#: The reference engine pair: 3.2 GB/s streaming, 40 ns fill.
ENGINE = ClusterConfig(num_nodes=2).nic_timing()


def _compressed(nbytes, ratio, engines=True):
    """A sized gradient message as the sending endpoint builds it: a
    node without engines sends the stream raw."""
    stream = inceptionn_profile() if engines else None
    return build_wire_message(0, 1, stream=stream, nbytes=nbytes, ratio=ratio)


def _star(num_nodes=4, **net_kwargs):
    sim = Simulation()
    topo = SwitchedStar(sim, num_nodes, bandwidth_bps=10e9)
    return sim, Network(sim, topo, **net_kwargs)


def _delivery_time(sim, event):
    out = {}
    event.add_callback(lambda ev: out.setdefault("t", sim.now))
    sim.run()
    return out["t"]


def test_single_message_time_close_to_analytic():
    sim, net = _star()
    nbytes = 10 * 2**20
    t = _delivery_time(sim, net.send(0, 1, nbytes))
    wire = packet_count(nbytes) * HEADER_BYTES + nbytes
    floor = wire * 8 / 10e9  # one link's serialization, pipelined over two
    assert floor < t < floor * 1.1 + 1e-3


def test_headers_accounted():
    sim, net = _star()
    nbytes = 1460 * 100
    net.send(0, 1, nbytes)
    sim.run()
    assert net.total_wire_bytes == nbytes + 100 * HEADER_BYTES


def test_payload_delivered_with_receipt():
    sim, net = _star()
    marker = object()
    ev = net.send(0, 1, 1000, payload=marker)
    sim.run()
    payload, receipt = ev.value
    assert payload is marker
    assert receipt.nbytes == 1000
    assert receipt.duration > 0


def test_incast_contention_serializes_on_downlink():
    # 3 senders to one destination take ~3x the time of one sender.
    sim1, net1 = _star()
    t_one = _delivery_time(sim1, net1.send(1, 0, 2**20))

    sim3, net3 = _star()
    events = [net3.send(src, 0, 2**20) for src in (1, 2, 3)]
    t_three = _delivery_time(sim3, sim3.all_of(events))
    assert t_three == pytest.approx(3 * t_one, rel=0.15)


def test_disjoint_pairs_run_concurrently():
    sim, net = _star()
    ev1 = net.send(0, 1, 2**20)
    ev2 = net.send(2, 3, 2**20)
    t_both = _delivery_time(sim, sim.all_of([ev1, ev2]))

    sim1, net1 = _star()
    t_one = _delivery_time(sim1, net1.send(0, 1, 2**20))
    assert t_both == pytest.approx(t_one, rel=0.05)


def test_compression_reduces_wire_time_up_to_engine_cap():
    # At 10:1 compression the wire would be ~10x faster, but the engine's
    # 3.2 GB/s uncompressed-side throughput caps the gain at 2.56x over a
    # 10 Gb/s link — reproducing the paper's observation that communication
    # time reduction saturates well below the compression ratio.
    nbytes = 8 * 2**20
    sim_plain, net_plain = _star()
    t_plain = _delivery_time(sim_plain, net_plain.send(0, 1, nbytes))

    sim = Simulation()
    topo = SwitchedStar(sim, 4)
    net = Network(sim, topo, engine=ENGINE)
    ev = net.send_wire(_compressed(nbytes, 10.0))
    t_comp = _delivery_time(sim, ev)
    assert t_comp < t_plain / 2
    engine_floor = nbytes / (256 * 100e6 / 8)
    assert t_comp == pytest.approx(engine_floor, rel=0.1)


def test_unbounded_engine_exposes_full_compression_gain():
    nbytes = 8 * 2**20
    sim = Simulation()
    topo = SwitchedStar(sim, 2)
    fast = NicTimingModel(engine_latency_s=1e-6, engine_throughput_bps=1e12)
    net = Network(sim, topo, engine=fast)
    msg = _compressed(nbytes, 10.0)
    t = _delivery_time(sim, net.send_wire(msg))
    assert t == pytest.approx(msg.wire_nbytes * 8 / 10e9, rel=0.15)


def test_compression_ignored_without_engines():
    nbytes = 2**20
    sim, net = _star()  # no engines
    # A sender without engines never compresses the stream.
    ev = net.send_wire(_compressed(nbytes, 10.0, engines=False))
    sim.run()
    _, receipt = ev.value
    assert not receipt.compressed
    assert receipt.wire_nbytes >= nbytes


def test_compressed_keeps_packet_count():
    nbytes = 1460 * 1000
    sim = Simulation()
    topo = SwitchedStar(sim, 2)
    net = Network(sim, topo, engine=ENGINE)
    ev = net.send_wire(_compressed(nbytes, 15.0))
    sim.run()
    _, receipt = ev.value
    assert receipt.num_packets == 1000
    assert receipt.wire_nbytes == 1000 * HEADER_BYTES + nbytes // 15


def test_slow_engine_gates_throughput():
    nbytes = 8 * 2**20
    sim = Simulation()
    topo = SwitchedStar(sim, 2)
    slow = NicTimingModel(engine_latency_s=1e-6, engine_throughput_bps=100e6)
    net = Network(sim, topo, engine=slow)
    ev = net.send_wire(_compressed(nbytes, 10.0))
    t = _delivery_time(sim, ev)
    # Gated by the 100 MB/s engine, not the 10 Gb/s link.
    assert t >= nbytes / 100e6 * 0.95


def test_direct_ring_routes_only_to_successor():
    sim = Simulation()
    ring = DirectRing(sim, 4)
    net = Network(sim, ring)
    net.send(0, 1, 1000)  # fine
    with pytest.raises(ValueError):
        net.send(0, 2, 1000)


def test_zero_byte_message_delivers():
    sim, net = _star()
    ev = net.send(0, 1, 0)
    t = _delivery_time(sim, ev)
    assert t > 0


def test_self_send_rejected():
    sim, net = _star()
    with pytest.raises(ValueError):
        net.send(1, 1, 100)


def test_train_granularity_does_not_change_totals():
    nbytes = 3 * 2**20
    times = []
    for train_packets in (10, 44, 200):
        sim, net = _star(train_packets=train_packets)
        times.append(_delivery_time(sim, net.send(0, 1, nbytes)))
    assert max(times) / min(times) < 1.05
