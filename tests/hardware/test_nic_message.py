"""The message-granular NIC datapath equals the per-packet one.

``transmit_message``/``receive_message`` run a whole packet train
through one engine call; ``transmit``/``receive`` of one-packet trains
are the per-packet case.  Both must leave identical packets, sidecar
contexts, ``NicCounters``, engine totals and trace instants.
"""

import numpy as np
import pytest

from repro.core import ErrorBound
from repro.hardware import DecompressionError, InceptionnNic
from repro.network import TOS_COMPRESS, TOS_DEFAULT, Packet
from repro.network.packet import segment_bytes
from repro.obs import Tracer

BOUND = ErrorBound(10)


def _gradient_bytes(n, seed=0):
    rng = np.random.default_rng(seed)
    # Every tag class shows up: mostly small, a few at or above 1.0.
    values = (rng.standard_normal(n) * 0.2).astype(np.float32)
    values[::97] *= 40
    return values.tobytes()


def _state(nic):
    """Everything a datapath pass may move."""
    return (
        nic.counters,
        nic.compressor.total_cycles,
        nic.compressor.total_bursts,
        nic.decompressor.total_cycles,
        nic.decompressor.total_groups,
        None if nic.tracer is None else [e.to_dict() for e in nic.tracer.events],
        None if nic.tracer is None else nic.tracer.metrics.snapshot(),
    )


def _nic_pair(node, **kwargs):
    """Two identically configured NICs: message path, packet path."""
    tracers = [Tracer(), Tracer()] if kwargs.pop("traced", False) else [None, None]
    return [InceptionnNic(node, BOUND, tracer=t, **kwargs) for t in tracers]


def _assert_same_tx(data, tos, **kwargs):
    by_message, by_packet = _nic_pair(0, **kwargs)
    train = by_message.transmit_message(data, dst=1, tos=tos)
    loop = [
        by_packet.transmit([pkt])[0]
        for pkt in segment_bytes(data, src=0, dst=1, tos=tos)
    ]
    assert train == loop
    assert [p.context for p in train] == [p.context for p in loop]
    assert _state(by_message) == _state(by_packet)
    return train


def _assert_same_rx(packets, **kwargs):
    by_message, by_packet = _nic_pair(1, **kwargs)
    message = by_message.receive_message(packets)
    loop = sorted((by_packet.receive([pkt])[0] for pkt in packets), key=lambda p: p.seq)
    assert message == b"".join(p.payload for p in loop)
    assert _state(by_message) == _state(by_packet)
    return message


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("num_values", [0, 1, 365, 366, 3 * 365, 10_003])
def test_message_path_equals_packet_path(num_values, traced):
    # 365 values fill one MSS (a partial final group); 10_003 leaves a
    # ragged last packet; 0 is the empty message's one empty packet.
    data = _gradient_bytes(num_values, seed=num_values)
    train = _assert_same_tx(data, TOS_COMPRESS, traced=traced)
    assert len(train) == max(1, -(-len(data) // 1460))
    restored = _assert_same_rx(train, traced=traced)
    assert len(restored) == len(data)


def test_bypass_traffic_and_disabled_nics_take_the_same_path():
    data = _gradient_bytes(2_000, seed=1)
    assert b"".join(p.payload for p in _assert_same_tx(data, TOS_DEFAULT)) == data
    untouched = _assert_same_tx(data, TOS_COMPRESS, enabled=False, traced=True)
    assert b"".join(p.payload for p in untouched) == data
    assert _assert_same_rx(untouched, enabled=False) == data


def test_mixed_tos_shuffled_arrival():
    sender = InceptionnNic(0, BOUND)
    gradients = sender.transmit_message(_gradient_bytes(3_000, 2), dst=1, tos=TOS_COMPRESS)
    control = sender.transmit_message(bytes(range(256)) * 9, dst=1, tos=TOS_DEFAULT)
    for pkt in control:  # one reassembly: keep sequence numbers distinct
        pkt.seq += len(gradients)
    # A foreign stream: marked compressible, but no sidecar of ours, so
    # it decodes to whole groups.
    stream, _ = sender.compressor.compress(_gradient_bytes(11, 3))
    foreign = Packet(
        src=0, dst=1, seq=len(gradients) + len(control), tos=TOS_COMPRESS,
        payload=stream, context="opaque",
    )
    arrival = gradients + control + [foreign]
    order = np.random.default_rng(5).permutation(len(arrival))
    shuffled = [arrival[i] for i in order]
    message = _assert_same_rx(shuffled, traced=True)
    assert len(message) == 3_000 * 4 + 256 * 9 + 16 * 4


def test_sidecar_contexts_survive_the_train():
    tx, rx = InceptionnNic(0, BOUND), InceptionnNic(1, BOUND)
    markers = [{"block": k} for k in range(3)]
    packets = [
        Packet(src=0, dst=1, seq=k, tos=TOS_COMPRESS,
               payload=_gradient_bytes(50 + k, k), context=markers[k])
        for k in range(3)
    ]
    wire = [tx.transmit([pkt])[0] for pkt in packets]
    restored = rx.receive(wire)
    assert [pkt.context for pkt in restored] == markers
    assert all(got.context is want for got, want in zip(restored, markers))


@pytest.mark.parametrize("traced", [False, True])
def test_a_malformed_packet_leaves_the_nic_untouched(traced):
    tx = InceptionnNic(0, BOUND)
    train = tx.transmit_message(_gradient_bytes(2_000, 4), dst=1, tos=TOS_COMPRESS)
    victim = train[2]
    train[2] = Packet(
        src=victim.src, dst=victim.dst, seq=victim.seq, tos=victim.tos,
        payload=victim.payload[:-3], context=victim.context,
    )
    rx = InceptionnNic(1, BOUND, tracer=Tracer() if traced else None)
    before = _state(InceptionnNic(1, BOUND, tracer=Tracer() if traced else None))
    with pytest.raises(DecompressionError, match="stream 2 truncated"):
        rx.receive_message(train)
    assert _state(rx) == before
    # ...and a wrong value count is just as atomic.
    train[2] = victim
    train[4].context.num_values += 8
    with pytest.raises(DecompressionError, match="caller expected"):
        rx.receive_message(train)
    assert _state(rx) == before
