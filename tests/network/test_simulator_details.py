"""Simulator detail tests: receipts, train splitting, cut-through edges."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import inceptionn_profile
from repro.network import (
    HEADER_BYTES,
    TOS_DEFAULT,
    FatTree,
    Link,
    LossModel,
    Network,
    NicTimingModel,
    Route,
    Simulation,
    SwitchedStar,
    TwoTierFabric,
    packet_count,
)
from repro.network import simulator
from repro.network.packet import train_runs
from repro.network.simulator import _Run
from repro.obs import Tracer
from repro.transport.wire import WireMessage, build_wire_message

from .reference_train import ReferenceNetwork
from .test_train_oracle import (
    FAN_OUT,
    FAN_OUT_QUEUED,
    GROUP_AND_TRAIN,
    GROUP_UNTIL,
    HELD,
    INCAST,
    MIXED_CLASSES,
    QUEUED_AT_PORT,
    QUEUED_TRAIN,
    SAME_INSTANT,
    SAME_LANDING,
    TRAIN_REACHES_RUN,
    execute,
)


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
    # Every send path meets the check: send_route is the one entry.
    route = net.topology.route(0, 1)
    with pytest.raises(ValueError, match="nbytes"):
        net.send_route(route, 0, 1, -5, -5)
    with pytest.raises(ValueError, match="wire_payload"):
        net.send_route(route, 0, 1, 1000, -300)
    forged = WireMessage(0, 1, TOS_DEFAULT, None, 1000, -300, 1, True, True)
    with pytest.raises(ValueError, match="wire_payload"):
        net.send_wire(forged)
    assert net.messages_sent == 0


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
    runs = train_runs(num_packets, wire, nbytes, train_packets)
    trains = [train for count, train in runs for _ in range(count)]
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


def test_the_oracle_examples_are_planned_as_described(monkeypatch):
    # The untraced oracle's pinned examples reach the express lane's
    # delicate cases: same-instant messages into one resource planned as
    # one group, a port reached in two classes, requests staged in a
    # plan's own round, a run with trains waiting at a priority port
    # when traffic joins it, a per-train request reaching a run, and an
    # ``until`` stop.  A ``("plan", instant, members, trains)`` is a
    # started plan; a ``("settle", instant, late, trains)`` a run settled
    # with the trains it hands on: to the next plan, or at the stop to
    # per-train trains.
    log = []
    start, settle = _Run.start, _Run.settle

    def spy_start(run):
        started = start(run)
        trains = sum(len(stages[-1]) for stages in run.arrivals) if started else None
        log.append(("plan", run.net.sim.now, len(run.members), trains))
        return started

    def spy_settle(run, now, late):
        handed = settle(run, now, late)
        log.append(("settle", now, late, sum(hi - lo for _, lo, hi, _ in handed)))
        return handed

    def observed(scenario):
        log.clear()
        execute(Network, scenario)
        return list(log)

    monkeypatch.setattr(_Run, "start", spy_start)
    monkeypatch.setattr(_Run, "settle", spy_settle)
    assert observed(SAME_INSTANT) == [("plan", 0.0, 2, 10)]
    assert observed(INCAST) == [("plan", 0.0, 3, 17)]
    assert observed(FAN_OUT) == [("plan", 0.0, 3, 15)]
    assert observed(MIXED_CLASSES) == [("plan", 0.0, 2, 10)]
    # Message 3's plan takes in the three one-train messages staged at
    # host 0's uplink in its round.
    assert observed(SAME_LANDING) == [("plan", 0.0, 4, 5), ("plan", 0.0, 2, 4)]
    assert observed(GROUP_UNTIL) == [
        ("plan", 0.0, 3, 15), ("settle", 1.2e-5, True, 12)
    ]
    # The one-train message reaches host 2's downlink as its head arrives.
    assert observed(GROUP_AND_TRAIN) == [
        ("plan", 0.0, 2, 10),
        ("settle", 3.8432e-6, False, 10),
        ("plan", 3.8432e-6, 3, 11),
    ]
    # The second message's plan, at its send instant, takes in the run
    # whose trains wait at host 0's uplink (host 1's downlink on
    # ``HELD``); one of them is through.
    for scenario, members, trains in (
        (QUEUED_AT_PORT, 1, 14), (HELD, 1, 14), (FAN_OUT_QUEUED, 3, 42)
    ):
        assert observed(scenario) == [
            ("plan", 0.0, members, trains),
            ("settle", 5e-6, False, trains - 1),
            ("plan", 5e-6, members + 1, trains + 4),
        ]
    # The queued third train is adopted at 1 us; the first two join the
    # plan as they reach it.
    assert observed(QUEUED_TRAIN) == [
        ("plan", 1e-6, 2, 6),
        ("settle", 3.8432e-6, False, 6),
        ("plan", 3.8432e-6, 3, 7),
        ("settle", 4.6864e-6, False, 6),
        ("plan", 4.6864e-6, 3, 7),
    ]
    assert observed(TRAIN_REACHES_RUN) == [
        ("plan", 0.0, 1, 14),
        ("settle", 8.8432e-6, False, 14),
        ("plan", 8.8432e-6, 2, 15),
    ]


def _one_round(order):
    """A fan-out from host 0 and an incast into host 3, dispatched by one
    callback in ``order``: deliveries, link counters and end time."""
    sim = Simulation()
    net = Network(sim, SwitchedStar(sim, 4), train_packets=3)
    sends = [(0, 1, 20_000), (0, 2, 30_000), (0, 3, 9_000), (1, 3, 25_000), (2, 3, 12_000)]
    delivered = []

    def dispatch(_):
        for src, dst, nbytes in (sends[index] for index in order):
            net.send(src, dst, nbytes).add_callback(
                lambda ev: delivered.append((ev.value[1].dst, sim.now.hex()))
            )

    sim.timeout(1e-6).add_callback(dispatch)
    end = sim.run().hex()
    counters = [
        (link.name, link.bytes_carried, link.busy_time.hex(), link._free_at.hex())
        for link in net.topology.all_links()
    ]
    return delivered, counters, end


def test_a_group_plan_does_not_depend_on_dispatch_order(monkeypatch):
    built = []
    init = simulator._Train.__init__

    def counting(train, *args):
        built.append(train)
        init(train, *args)

    monkeypatch.setattr(simulator._Train, "__init__", counting)
    forward = _one_round([0, 1, 2, 3, 4])
    assert len(forward[0]) == 5 and built == []  # one group of five
    assert _one_round([4, 3, 2, 1, 0]) == forward
    assert _one_round([2, 4, 0, 3, 1]) == forward


def _segments(network_cls, sends):
    """``send_route`` calls of 20 kB from host 0 to 1, made by one
    callback on a four-host star, each ``(link names, arb_base)``:
    deliveries, link counters and end time."""
    sim = Simulation()
    star = SwitchedStar(sim, 4)
    net = network_cls(sim, star, train_packets=3)
    links = {link.name: link for link in star.all_links()}
    delivered = []

    def dispatch(_):
        for index, (names, arb_base) in enumerate(sends):
            route = Route(tuple(links[name] for name in names), 1e-7)
            net.send_route(route, 0, 1, 20_000, 20_000, arb_base=arb_base).add_callback(
                lambda ev, index=index: delivered.append((index, sim.now.hex()))
            )

    sim.timeout(1e-6).add_callback(dispatch)
    end = sim.run().hex()
    counters = [
        (link.name, link.bytes_carried, link.busy_time.hex(), link._free_at.hex())
        for link in star.all_links()
    ]
    return delivered, counters, end


# Two segments crossing two links in opposite orders: the union of their
# chains has a cycle, so no one order of the resources suits both.
CYCLE = [(("n0->sw", "sw->n1"), (0, 1, 0)), (("sw->n1", "n0->sw"), (0, 1, 1))]
# One segment crossing a link twice: a cycle in a single chain.
LOOP = [(("n0->sw", "sw->n1", "n0->sw"), (0, 1, 0))]
# Two segments sharing a link under one arbitration identity: their
# trains' keys tie, which the planner's merge cannot order.
SHARED_KEY = [(("n0->sw", "sw->n1"), (0, 1, 0)), (("n0->sw", "sw->n2"), (0, 1, 0))]


@pytest.mark.parametrize(
    "sends", [CYCLE, LOOP, SHARED_KEY], ids=["cycle", "loop", "shared-key"]
)
def test_unplannable_groups_go_per_train_as_the_reference_does(monkeypatch, sends):
    planned = []
    start = _Run.start

    def spy(run):
        started = start(run)
        planned.append((len(run.members), started))
        return started

    monkeypatch.setattr(_Run, "start", spy)
    assert _segments(Network, sends) == _segments(ReferenceNetwork, sends)
    assert planned == [(len(sends), False)]
