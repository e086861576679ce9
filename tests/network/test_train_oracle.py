"""Callback trains against the generator-process trains they replaced.

Hypothesis generates message mixes — raw sends, engine-bracketed
``send_wire`` sends and ``send_route`` segments, with mixed-class
``tos_priority`` maps — and runs each on :class:`~repro.network.Network`
and on :class:`.reference_train.ReferenceNetwork` under FIFO.  Delivery
times (as hex), receipts, every resource's counters, the retransmission
counters and hook calls, a :class:`DeliveryFailure` if one is raised,
every resource's sequence of grants and the set of trace events must be
equal.

What may differ is the order in which *different* ports grant at one
instant.  A train now requests its next stage from the heap entry of
its hand-off, where the generator first resumed from the ready queue;
a priority port's service-end wake-up is such a heap entry too, so the
two can register their instant-end grants the other way round.  On the
plain links of a star nothing else registers grants, so there the
complete trace must match in order, and seeded loss — whose per-link
draws follow those grants — is compared there, under a retransmit
limit.  On priority-port fabrics a lossy run can draw in another order
when two trains hand off at the very same float; that is the
same-instant sensitivity ``repro sanitize`` already reports for lossy
runs.

Sends are issued from event callbacks at generated instants, the way
every sender in the package runs (a process resumed by an event).

Untraced, the kernel reserves the trains of the messages one instant
sends into shared resources in one pass (an express group) and plans
them again with the other traffic that reaches their path; the
reference never does.  So a third property runs the lossless mixes
untraced, half of them built around a same-instant burst (a fan-out
from one host or an incast into one): it compares deliveries, every
resource counter, the end time and the retransmit counters.  A fourth
draws busier untraced mixes (9 to 14 messages over 8 instants).
Hypothesis also draws an optional ``run(until=...)`` stop, where every
property compares the deliveries and counters again.  A group queues
its landings when it is planned, so deliveries at one float instant
are compared in time-then-index order there (the race check of
``repro sanitize`` holds outcomes independent of that order).
"""

from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network import (
    TOS_COMPRESS,
    TOS_DEFAULT,
    DeliveryFailure,
    FatTree,
    LeafSpine,
    LossModel,
    Network,
    NicTimingModel,
    RetransmitPolicy,
    Route,
    Simulation,
    SwitchedStar,
)
from repro.obs import Tracer
from repro.transport.wire import WireMessage

from .reference_train import ReferenceNetwork

TOPOLOGIES = {
    "star": lambda sim: SwitchedStar(sim, 4),
    "fat-tree": lambda sim: FatTree(sim, 4),
    "leaf-spine": lambda sim: LeafSpine(sim, 2, 2, 2),
}
TOS_SCAVENGER = 0x08
PRIORITY_MAPS = [None, {TOS_COMPRESS: 0, TOS_SCAVENGER: 7}, {TOS_DEFAULT: 7}]
# A few instants, so sends collide with each other and with hand-offs.
SEND_TIMES = st.sampled_from([0.0, 0.0, 1e-6, 5e-6, 2.4e-5])


def _message(send_times):
    """One send: ``(kind, instant, src, dst offset, nbytes, wire payload
    fraction, tos, route segment length)``."""
    return st.tuples(
        st.sampled_from(["raw", "wire", "route"]),
        send_times,
        st.integers(0, 15),  # src, folded onto the fabric's hosts
        st.integers(1, 15),  # dst offset from src
        st.integers(0, 60_000),  # application bytes
        st.sampled_from([1.0, 0.5, 0.07]),  # wire payload fraction
        st.sampled_from([TOS_DEFAULT, TOS_COMPRESS, TOS_SCAVENGER]),
        st.integers(1, 3),  # route segment length
    )


MESSAGE = _message(SEND_TIMES)
MESSAGES = st.lists(MESSAGE, min_size=1, max_size=8)

# A stop that falls amid the generated traffic, or none.
UNTIL = st.sampled_from([None, 0.0, 3e-6, 1.2e-5, 4e-5, 1e-4])

LOSSLESS = {
    "topology": st.sampled_from(sorted(TOPOLOGIES)),
    "train_packets": st.sampled_from([1, 3, 44]),
    "tos_priority": st.sampled_from(PRIORITY_MAPS),
    "loss": st.just(0.0),
    "loss_seed": st.just(0),
    "max_attempts": st.just(None),
    "messages": MESSAGES,
    "until": UNTIL,
}
SCENARIOS = st.fixed_dictionaries(LOSSLESS)
UNTRACED = st.fixed_dictionaries({**LOSSLESS, "traced": st.just(False)})
# Busier untraced mixes: more messages over more instants, so plans are
# settled and planned again several times, in one class and in two.
WIDE_SEND_TIMES = st.sampled_from([0.0, 0.0, 1e-6, 2e-6, 5e-6, 8e-6, 1.2e-5, 2.4e-5])
WIDE = st.fixed_dictionaries(
    {
        **LOSSLESS,
        "messages": st.lists(_message(WIDE_SEND_TIMES), min_size=9, max_size=14),
        "traced": st.just(False),
    }
)
HOSTS = {"star": 4, "fat-tree": 16, "leaf-spine": 4}


@st.composite
def bursts(draw):
    """An untraced mix around a same-instant burst: two to four messages
    from one host (a fan-out) or into one (an incast)."""
    scenario = draw(UNTRACED)
    hosts = HOSTS[scenario["topology"]]
    hub = draw(st.integers(0, hosts - 1))
    peers = st.integers(0, hosts - 1).filter(lambda host: host != hub)
    at, fan_out = draw(SEND_TIMES), draw(st.booleans())
    burst = []
    for peer in draw(st.lists(peers, min_size=2, max_size=4)):
        kind, _, _, _, nbytes, frac, tos, hops = draw(MESSAGE)
        src, dst = (hub, peer) if fan_out else (peer, hub)
        burst.append((kind, at, src, (dst - src) % hosts, nbytes, frac, tos, hops))
    others = scenario["messages"][: draw(st.integers(0, 3))]
    return {**scenario, "messages": draw(st.permutations(burst + others))}

LOSSY_STAR = st.fixed_dictionaries(
    {
        "topology": st.just("star"),
        "train_packets": st.sampled_from([1, 3, 44]),
        "tos_priority": st.sampled_from(PRIORITY_MAPS),
        "loss": st.sampled_from([0.05, 0.3]),
        "loss_seed": st.integers(0, 3),
        "max_attempts": st.sampled_from([None, 2, 4]),
        "messages": MESSAGES,
        "until": UNTIL,
    }
)


def execute(network_cls, scenario):
    """Run ``scenario`` on ``network_cls``; everything it can observe."""
    sim = Simulation()
    topology = TOPOLOGIES[scenario["topology"]](sim)
    tracer = Tracer() if scenario.get("traced", True) else None
    loss = None
    if scenario["loss"]:
        loss = LossModel(scenario["loss"], seed=scenario["loss_seed"])
    net = network_cls(
        sim,
        topology,
        train_packets=scenario["train_packets"],
        engine=NicTimingModel(1e-6, 3.2e9),
        loss=loss,
        retransmit=RetransmitPolicy(20e-6, scenario["max_attempts"]),
        tracer=tracer,
        tos_priority=scenario["tos_priority"],
    )
    hosts = topology.num_nodes
    delivered = []
    resent = []

    def send(index, kind, src, dst, nbytes, wire, tos, hops):
        if kind == "raw":
            done = net.send(src, dst, nbytes, tos=tos, payload=index)
        elif kind == "wire":
            msg = WireMessage(
                src, dst, tos, None, nbytes, wire, -(-max(nbytes, 1) // 1460),
                True, True,
            )
            done = net.send_wire(
                msg, on_retransmit=lambda *counts: resent.append((index, counts))
            )
        else:
            route = topology.route(src, dst, tos=tos)
            segment = Route(route.links[:hops], route.forwarding_delay_s)
            done = net.send_route(
                segment, src, dst, nbytes, wire, tos=tos, payload=index,
                tx_engine_node=src if index % 2 else None,
                # Two keys per route: same-key messages must tie.
                arb_base=(src, dst, 1_000 + index % 2),
            )
        done.add_callback(
            lambda ev: delivered.append(
                (index, sim.now.hex(), asdict(ev.value[1]))
            )
        )

    for index, (kind, at, src, dst, nbytes, frac, tos, hops) in enumerate(
        scenario["messages"]
    ):
        src %= hosts
        dst = (src + dst) % hosts
        if dst == src:
            dst = (src + 1) % hosts
        wire = int(nbytes * frac)
        sim.timeout(at).add_callback(
            lambda _, args=(index, kind, src, dst, nbytes, wire, tos, hops): send(
                *args
            )
        )
    resources = [
        *topology.all_links(),
        *net._tx_engines.values(),
        *net._rx_engines.values(),
    ]

    def counters():
        return [
            (
                link.name,
                link.bytes_carried,
                link.busy_time.hex(),
                link.packets_dropped,
                link.trains_dropped,
                link._free_at.hex(),
            )
            for link in resources
        ]

    paused = None
    try:
        failure = None
        if scenario.get("until") is not None:
            stop = sim.run(until=scenario["until"]).hex()
            paused = (stop, list(delivered), counters())
        end = sim.run().hex()
    except DeliveryFailure as exc:
        failure, end = str(exc), sim.now.hex()
    observed = {
        "end": end,
        "paused": paused,
        "failure": failure,
        "delivered": delivered,
        "resent": resent,
        "retransmitted": (net.trains_retransmitted, net.packets_retransmitted),
        "counters": counters(),
    }
    if tracer is None:
        return observed
    return {
        **observed,
        "events": [event.to_dict() for event in tracer.events],
        "grants": [
            [e.to_dict() for e in tracer.events if (e.args or {}).get("resource") == link.name]
            for link in resources
        ],
        "metrics": tracer.metrics.snapshot(),
    }


def _untraced(topology, tos_priority, *messages):
    return {
        "topology": topology,
        "train_packets": 3,
        "tos_priority": tos_priority,
        "loss": 0.0,
        "loss_seed": 0,
        "max_attempts": None,
        "messages": list(messages),
        "traced": False,
        "until": None,
    }


# Host 0 sends to 2, then, at the same instant, to 1: the two share
# host 0's uplink and are planned as one group, in key order, so the
# second message's trains go first.
SAME_INSTANT = _untraced(
    "star",
    None,
    ("raw", 0.0, 0, 2, 20_000, 1.0, TOS_DEFAULT, 1),
    ("raw", 0.0, 0, 1, 20_000, 1.0, TOS_DEFAULT, 1),
)
# A scavenger-class run's trains wait at host 0's priority uplink when a
# high-class message from the same host reaches it: the run is settled
# to that instant and planned again with the new message, whose trains
# overtake the waiting ones under strict priority.
QUEUED_AT_PORT = _untraced(
    "fat-tree",
    {TOS_COMPRESS: 0, TOS_SCAVENGER: 7},
    ("raw", 0.0, 0, 1, 60_000, 1.0, TOS_SCAVENGER, 1),
    ("raw", 5e-6, 0, 2, 20_000, 1.0, TOS_COMPRESS, 1),
)


# A 3 -> 1 incast at t = 0: the three messages share host 0's downlink
# (two of them its receive engine too) and are planned as one group.
INCAST = _untraced(
    "star",
    None,
    ("wire", 0.0, 1, 3, 20_000, 0.5, TOS_COMPRESS, 1),
    ("wire", 0.0, 2, 2, 20_000, 0.07, TOS_COMPRESS, 1),
    ("raw", 0.0, 3, 1, 30_000, 1.0, TOS_DEFAULT, 1),
)
# A 1 -> 3 fan-out at t = 0: one group on host 0's uplink.
FAN_OUT = _untraced(
    "star",
    None,
    ("raw", 0.0, 0, 1, 20_000, 1.0, TOS_DEFAULT, 1),
    ("wire", 0.0, 0, 2, 30_000, 0.5, TOS_COMPRESS, 1),
    ("raw", 0.0, 0, 3, 9_000, 1.0, TOS_DEFAULT, 1),
)
# The fan-out on the fat-tree: a scavenger message from host 4 reaches
# host 1's downlink mid-flight; the group, some of its trains still
# waiting at host 0's priority uplink, is planned again with it.
FAN_OUT_QUEUED = _untraced(
    "fat-tree",
    {TOS_COMPRESS: 0, TOS_SCAVENGER: 7},
    ("raw", 0.0, 0, 1, 60_000, 1.0, TOS_COMPRESS, 1),
    ("wire", 0.0, 0, 2, 60_000, 0.5, TOS_COMPRESS, 1),
    ("raw", 0.0, 0, 3, 60_000, 1.0, TOS_COMPRESS, 1),
    ("raw", 5e-6, 4, 13, 20_000, 1.0, TOS_SCAVENGER, 1),
)
# A fan-out in two classes: one group, whose plan serves host 0's uplink
# as the port does, by strict priority, not in arrival-then-key order.
MIXED_CLASSES = _untraced(
    "fat-tree",
    {TOS_COMPRESS: 0, TOS_SCAVENGER: 7},
    ("raw", 0.0, 0, 1, 20_000, 1.0, TOS_SCAVENGER, 1),
    ("raw", 0.0, 0, 2, 20_000, 1.0, TOS_COMPRESS, 1),
)
# The fan-out cut by a ``run(until=...)`` stop.
GROUP_UNTIL = {**FAN_OUT, "until": 1.2e-5}
# One round holds a group (host 0 to 2 and 3) and a one-train message,
# which goes per train, from host 1 to 2: it reaches host 2's downlink
# while the group holds it and is admitted in that instant's first
# round.
GROUP_AND_TRAIN = _untraced(
    "star",
    None,
    ("raw", 0.0, 0, 2, 20_000, 1.0, TOS_DEFAULT, 1),
    ("raw", 0.0, 0, 3, 20_000, 1.0, TOS_DEFAULT, 1),
    ("raw", 0.0, 1, 1, 1_000, 1.0, TOS_DEFAULT, 1),
)

# The four ways other traffic meets a plan, each admitted into it:
# Three one-train messages from host 0 go per train at t = 0; the third
# still waits in host 0's uplink queue when a five-train message from
# host 0 is planned at 1 us, which adopts it for its whole chain (the
# other two join as they reach the plan's next links).
QUEUED_TRAIN = _untraced(
    "fat-tree",
    None,
    ("raw", 0.0, 0, 1, 1_000, 1.0, TOS_DEFAULT, 1),
    ("raw", 0.0, 0, 1, 1_000, 1.0, TOS_DEFAULT, 1),
    ("raw", 0.0, 0, 1, 1_000, 1.0, TOS_DEFAULT, 1),
    ("raw", 1e-6, 0, 2, 20_000, 1.0, TOS_DEFAULT, 1),
)
# Host 2's message to host 1 is planned at 5 us while a run from host 0
# still has grants to come on host 1's downlink: the run is settled to
# that instant and both are planned as one.
HELD = _untraced(
    "fat-tree",
    None,
    ("raw", 0.0, 0, 1, 60_000, 1.0, TOS_DEFAULT, 1),
    ("raw", 5e-6, 2, 15, 20_000, 1.0, TOS_DEFAULT, 1),
)
# A one-train message from host 1 goes per train and reaches host 2's
# downlink while a run from host 0 holds it: its request is admitted.
TRAIN_REACHES_RUN = _untraced(
    "fat-tree",
    None,
    ("raw", 0.0, 0, 2, 60_000, 1.0, TOS_DEFAULT, 1),
    ("raw", 5e-6, 1, 1, 1_000, 1.0, TOS_DEFAULT, 1),
)
# An incast into host 2 in two classes at t = 0, one group: the
# scavenger trains from host 0 queue at host 2's downlink, and the
# high-class ones from host 4, on a longer path, overtake them there.
TWO_CLASSES = _untraced(
    "fat-tree",
    {TOS_COMPRESS: 0, TOS_SCAVENGER: 7},
    ("raw", 0.0, 0, 2, 60_000, 1.0, TOS_SCAVENGER, 1),
    ("raw", 0.0, 4, 14, 60_000, 1.0, TOS_COMPRESS, 1),
)
# Message 8 (host 1 to 2, at 1 us) joins the run that holds message 7
# (host 0 to 3, three trains); planned again with it, message 7 lands
# earlier than its first plan said, so that plan's landing entry and
# horizon must not count.
EARLIER_LANDING = {
    **_untraced(
        "fat-tree",
        None,
        *[("raw", 0.0, 0, 1, 0, 1.0, TOS_DEFAULT, 1)] * 5,
        ("route", 0.0, 1, 2, 3_000, 1.0, TOS_DEFAULT, 2),
        ("raw", 0.0, 0, 1, 0, 1.0, TOS_DEFAULT, 1),
        ("raw", 0.0, 0, 3, 3_000, 1.0, TOS_DEFAULT, 1),
        ("raw", 1e-6, 1, 1, 3_000, 1.0, TOS_DEFAULT, 1),
    ),
    "train_packets": 1,
}
ADMISSIONS = {
    "queued-train": QUEUED_TRAIN,
    "held": HELD,
    "train-reaches-run": TRAIN_REACHES_RUN,
    "two-classes": TWO_CLASSES,
}


def _by_instant(delivered):
    """Deliveries in time order, same-instant ones by message index."""
    return sorted(delivered, key=lambda entry: (float.fromhex(entry[1]), entry[0]))


# One train a packet.  The three empty messages from host 0 are staged
# at its uplink when message 3 (host 0 to 2, two trains) is planned, so
# they join its plan; messages 4 and 5 (host 1 to 3) are one group.
# Message 4 lands at the float instant message 3 does.
SAME_LANDING = {
    **_untraced(
        "fat-tree",
        None,
        ("raw", 0.0, 0, 2, 0, 1.0, TOS_DEFAULT, 1),
        ("raw", 0.0, 0, 2, 0, 1.0, TOS_DEFAULT, 1),
        ("raw", 0.0, 0, 2, 0, 1.0, TOS_DEFAULT, 1),
        ("wire", 0.0, 0, 2, 1_461, 0.5, TOS_DEFAULT, 1),
        ("wire", 0.0, 1, 2, 1_461, 0.5, TOS_DEFAULT, 1),
        ("wire", 0.0, 1, 2, 1_461, 0.5, TOS_DEFAULT, 1),
    ),
    "train_packets": 1,
}


def _same_run(scenario):
    new, ref = execute(Network, scenario), execute(ReferenceNetwork, scenario)
    if scenario["topology"] != "star" and "events" in new:
        for result in (new, ref):
            result["events"] = sorted(map(repr, result["events"]))
    if "events" not in new:
        # An express group queues its landings when it is planned, the
        # per-train kernel when the last train is granted: messages
        # landing at one float instant may be delivered in another order.
        for result in (new, ref):
            result["delivered"] = _by_instant(result["delivered"])
            if result["paused"] is not None:
                stop, delivered, counters = result["paused"]
                result["paused"] = (stop, _by_instant(delivered), counters)
    assert new == ref


@given(scenario=SCENARIOS)
@settings(max_examples=400, deadline=None)
def test_callback_trains_match_generator_trains(scenario):
    _same_run(scenario)


@example(scenario=SAME_INSTANT)
@example(scenario=QUEUED_AT_PORT)
@example(scenario=SAME_LANDING)
@example(scenario=INCAST)
@example(scenario=FAN_OUT)
@example(scenario=FAN_OUT_QUEUED)
@example(scenario=MIXED_CLASSES)
@example(scenario=GROUP_UNTIL)
@example(scenario=GROUP_AND_TRAIN)
@example(scenario=EARLIER_LANDING)
@given(scenario=st.one_of(UNTRACED, bursts()))
@settings(max_examples=400, deadline=None)
def test_untraced_trains_match_generator_trains(scenario):
    _same_run(scenario)


@given(scenario=WIDE)
@settings(max_examples=300, deadline=None)
def test_wide_untraced_mixes_match_generator_trains(scenario):
    _same_run(scenario)


@pytest.mark.parametrize("name", sorted(ADMISSIONS))
def test_traffic_a_plan_admits_matches_generator_trains(name):
    _same_run(ADMISSIONS[name])


@given(scenario=LOSSY_STAR)
@settings(max_examples=400, deadline=None)
def test_lossy_callback_trains_match_generator_trains(scenario):
    _same_run(scenario)


def test_retransmit_limit_failure_matches():
    scenario = {
        "topology": "star",
        "train_packets": 3,
        "tos_priority": None,
        "loss": 0.3,
        "loss_seed": 1,
        "max_attempts": 2,
        "messages": [
            ("raw", 0.0, 0, 1, 20_000, 1.0, TOS_DEFAULT, 1),
            ("wire", 0.0, 2, 1, 30_000, 0.07, TOS_COMPRESS, 1),
            ("route", 1e-6, 1, 2, 9_000, 0.5, TOS_SCAVENGER, 2),
        ],
    }
    observed = execute(Network, scenario)
    assert observed["failure"] is not None and observed["resent"]
    _same_run(scenario)


def _tied_keys(network_cls):
    """Two ``send_route`` segments from host 0 to 2 at one instant under
    one ``arb_base``, untraced: a message of seven trains, then one of one
    train.  Returns each delivery and every link's counters."""
    sim = Simulation()
    topology = SwitchedStar(sim, 4)
    net = network_cls(sim, topology, train_packets=3)
    route = topology.route(0, 2)
    delivered = []

    def send(_):
        for index, nbytes in enumerate((30_000, 1_000)):
            done = net.send_route(
                route, 0, 2, nbytes, nbytes, payload=index, arb_base=(0, 2, 7)
            )
            done.add_callback(
                lambda ev: delivered.append((ev.value[0], sim.now.hex()))
            )

    sim.timeout(0.0).add_callback(send)
    end = sim.run().hex()
    links = [
        (link.name, link.bytes_carried, link.busy_time.hex())
        for link in topology.all_links()
    ]
    return end, sorted(delivered), links


def test_tied_keys_are_granted_in_dispatch_order():
    # The multi-train message waits for the round's plan; the one-train
    # message starts at dispatch, so its request is staged first.  Both
    # meet in host 0's uplink's first arbitration, where the generator
    # reference grants tied keys in dispatch order.
    assert _tied_keys(Network) == _tied_keys(ReferenceNetwork)
