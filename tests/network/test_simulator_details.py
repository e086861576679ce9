"""Simulator detail tests: receipts, train splitting, cut-through edges."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import inceptionn_profile
from repro.network import (
    HEADER_BYTES,
    FatTree,
    Link,
    LossModel,
    Network,
    NicTimingModel,
    Simulation,
    SwitchedStar,
    TwoTierFabric,
    packet_count,
    split_trains,
)
from repro.network.simulator import _Run
from repro.obs import Tracer
from repro.transport.wire import build_wire_message

from .test_train_oracle import QUEUED_AT_PORT, SAME_INSTANT, execute


def _star(num_nodes=3, **kwargs):
    sim = Simulation()
    return sim, Network(sim, SwitchedStar(sim, num_nodes), **kwargs)


def test_receipt_fields():
    sim, net = _star()
    ev = net.send(0, 1, 10_000)
    sim.run()
    _, receipt = ev.value
    assert receipt.src == 0 and receipt.dst == 1
    assert receipt.nbytes == 10_000
    assert receipt.num_packets == packet_count(10_000)
    assert receipt.wire_nbytes == 10_000 + receipt.num_packets * HEADER_BYTES
    assert receipt.duration == receipt.delivered_at - receipt.sent_at
    assert receipt.duration > 0


def test_negative_sizes_rejected():
    sim, net = _star()
    with pytest.raises(ValueError):
        net.send(0, 1, -1)
    # Compressed sizes come from the sender NIC's build, which checks them.
    with pytest.raises(ValueError):
        build_wire_message(0, 1, stream=inceptionn_profile(), nbytes=-5)


def test_invalid_constructor_args():
    sim = Simulation()
    topo = SwitchedStar(sim, 2)
    with pytest.raises(ValueError):
        Network(sim, topo, train_packets=0)


@given(
    nbytes=st.integers(min_value=0, max_value=50_000_000),
    wire=st.integers(min_value=0, max_value=50_000_000),
    train_packets=st.integers(min_value=1, max_value=500),
)
@settings(max_examples=60, deadline=None)
def test_train_splitting_conserves_bytes(nbytes, wire, train_packets):
    # The one segmentation both exchange evaluators read.
    num_packets = packet_count(nbytes)
    wire = min(wire, nbytes)  # compressed payload never exceeds raw
    trains = split_trains(num_packets, wire, nbytes, train_packets)
    total_pkts = sum(p for p, _, _ in trains)
    total_wire = sum(w for _, w, _ in trains)
    total_raw = sum(r for _, _, r in trains)
    assert total_pkts == num_packets
    assert total_wire == num_packets * HEADER_BYTES + wire
    assert total_raw == num_packets * HEADER_BYTES + nbytes
    expected_trains = -(-num_packets // train_packets)
    assert len(trains) == expected_trains
    assert all(p >= 1 and w >= 0 and r >= 0 for p, w, r in trains)


def test_cut_through_head_clamped_to_train():
    sim = Simulation()
    link = Link(sim, bandwidth_bps=8e9, latency_s=1e-6)
    head = link.request(100, head_nbytes=10_000)
    times = {}
    head.add_callback(lambda e: times.setdefault("head", sim.now))
    # Head clamps to the train size: it lands when the train does,
    # which is also when the run ends.
    assert sim.run() == times["head"]
    assert times["head"] == link.serialization_time(100) + 1e-6


def test_cut_through_negative_head_clamped():
    sim = Simulation()
    link = Link(sim, bandwidth_bps=8e9, latency_s=0.0)
    head = link.request(1000, head_nbytes=-5)
    times = {}
    head.add_callback(lambda e: times.setdefault("head", sim.now))
    sim.run()
    assert times["head"] == 0.0  # zero-byte head arrives immediately


def test_message_counter_and_totals():
    sim, net = _star()
    net.send(0, 1, 1000)
    net.send(1, 2, 2000)
    sim.run()
    assert net.messages_sent == 2
    # 1000 B -> 1 packet, 2000 B -> 2 packets.
    assert net.total_wire_bytes == 3000 + 3 * HEADER_BYTES


def test_many_small_messages_interleave():
    sim, net = _star()
    events = [net.send(0, 1, 100) for _ in range(50)]
    done = []
    sim.all_of(events).add_callback(lambda e: done.append(sim.now))
    sim.run()
    assert done and done[0] > 0


def test_makespan_is_the_last_landing_not_the_last_wakeup():
    """On an oversubscribed two-tier fabric the fast downlink outruns the
    slow uplink's stream: the message is "delivered" before the uplink's
    train has landed, and ``run()`` must still return that landing time —
    exactly what the two-events-per-stage pipeline returned."""
    nbytes = 40_000  # one train
    wire = nbytes + packet_count(nbytes) * HEADER_BYTES
    head = HEADER_BYTES + 1460

    twin_sim = Simulation()
    route = TwoTierFabric(twin_sim, 2, 2).route(0, 3)

    def two_events_per_stage():
        for link in route.links[:-1]:
            yield link.request(wire, head)
            yield twin_sim.timeout(route.forwarding_delay_s)
        yield route.links[-1].request(wire, wire)
        return twin_sim.now

    twin = twin_sim.process(two_events_per_stage())
    twin_end = twin_sim.run()

    sim = Simulation()
    net = Network(sim, TwoTierFabric(sim, 2, 2))
    done = net.send(0, 3, nbytes)
    end = sim.run()
    _, receipt = done.value
    assert receipt.delivered_at == twin.value
    assert end == twin_end
    assert end > receipt.delivered_at  # set by the unobserved uplink landing
    assert sim.run(until=end + 1.0) == end


def _count_entries(fabric, packets, loss=None, tracer=None):
    """Send ``packets`` raw packets 0 -> 1; the queue entries it cost."""
    sim = Simulation()
    net = Network(
        sim,
        fabric(sim),
        train_packets=10,
        engine=NicTimingModel(1e-6, 3.2e9),
        loss=loss,
        tracer=tracer,
    )
    scheduled = []
    schedule = sim.schedule

    def counting(time, fn, arg):
        scheduled.append(fn)
        schedule(time, fn, arg)

    sim.schedule = counting
    done = net.send(0, 1, packets * 1460)  # raw: no engine stages
    sim.run()
    _, receipt = done.value
    assert receipt.num_packets == packets
    return len(scheduled), net.trains_retransmitted, receipt.delivered_at.hex()


def _two_host_star(sim):
    return SwitchedStar(sim, 2)


def _fat_tree(sim):
    return FatTree(sim, 4)


@pytest.mark.parametrize(
    "packets, delivered_at",
    [(100, "0x1.0b086adf5146bp-13"), (1_000, "0x1.3f231528bd2b5p-10")],
)
@pytest.mark.parametrize(
    "fabric", [_two_host_star, _fat_tree], ids=["star", "fat-tree"]
)
def test_untraced_lossless_message_is_one_queue_entry(fabric, packets, delivered_at):
    # An uncontended lossless message runs express: its trains are
    # reserved in one pass and only the landing is queued, whatever its
    # size (the per-train kernel queued 21 and 37 entries for 100
    # packets, 201 and 337 for 1 000).
    assert _count_entries(fabric, packets) == (1, 0, delivered_at)


@pytest.mark.parametrize(
    "fabric, loss, entries, resent, delivered_at",
    # Traced, or lossy, the per-train kernel runs: 10 trains x 3 (start
    # + one hand-off per link), less the 9 landings nobody awaits: only
    # the last train's is queued on a lossless chain.  The fat-tree adds
    # the priority ports' service-end wake-ups, only while a train
    # waits.  A lossy chain queues every train's landing, where a resend
    # starts.  The generator-process trains queued 61 and 81, the
    # per-train landings 30 and 46.
    [
        (_two_host_star, None, 21, 0, "0x1.0b086adf5146bp-13"),
        (_fat_tree, None, 37, 0, "0x1.0b086adf5146bp-13"),
        (_two_host_star, LossModel(0.3, seed=1), 36, 4, "0x1.6a71e57fdef8fp-12"),
    ],
    ids=["star", "fat-tree", "lossy-star"],
)
def test_one_queue_entry_per_train_per_stage(
    fabric, loss, entries, resent, delivered_at
):
    tracer = Tracer() if loss is None else None
    assert _count_entries(fabric, 100, loss, tracer) == (entries, resent, delivered_at)


def test_the_oracle_examples_dissolve_express_runs_as_described(monkeypatch):
    # The untraced oracle's two pinned examples reach the express lane's
    # two delicate cases: a request in the run's own first arbitration
    # round, and trains handed to a priority port's queue.
    dissolved = []
    dissolve = _Run.dissolve

    def spy(run, now, late):
        waiting = sum(len(resource._queue) for resource in run.resources)
        dissolve(run, now, late)
        handed = sum(len(resource._queue) for resource in run.resources) - waiting
        dissolved.append((now, late, handed))

    monkeypatch.setattr(_Run, "dissolve", spy)
    execute(Network, SAME_INSTANT)
    assert dissolved == [(0.0, False, 0)]
    dissolved.clear()
    execute(Network, QUEUED_AT_PORT)
    ((now, late, handed),) = dissolved
    assert (now, late) == (5e-6, False) and handed > 0

