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
"""

from dataclasses import asdict

from hypothesis import given, settings
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
    PriorityLink,
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

MESSAGES = st.lists(
    st.tuples(
        st.sampled_from(["raw", "wire", "route"]),
        SEND_TIMES,
        st.integers(0, 15),  # src, folded onto the fabric's hosts
        st.integers(1, 15),  # dst offset from src
        st.integers(0, 60_000),  # application bytes
        st.sampled_from([1.0, 0.5, 0.07]),  # wire payload fraction
        st.sampled_from([TOS_DEFAULT, TOS_COMPRESS, TOS_SCAVENGER]),
        st.integers(1, 3),  # route segment length
    ),
    min_size=1,
    max_size=8,
)

SCENARIOS = st.fixed_dictionaries(
    {
        "topology": st.sampled_from(sorted(TOPOLOGIES)),
        "train_packets": st.sampled_from([1, 3, 44]),
        "tos_priority": st.sampled_from(PRIORITY_MAPS),
        "loss": st.just(0.0),
        "loss_seed": st.just(0),
        "max_attempts": st.just(None),
        "messages": MESSAGES,
    }
)
LOSSY_STAR = st.fixed_dictionaries(
    {
        "topology": st.just("star"),
        "train_packets": st.sampled_from([1, 3, 44]),
        "tos_priority": st.sampled_from(PRIORITY_MAPS),
        "loss": st.sampled_from([0.05, 0.3]),
        "loss_seed": st.integers(0, 3),
        "max_attempts": st.sampled_from([None, 2, 4]),
        "messages": MESSAGES,
    }
)


def execute(network_cls, scenario):
    """Run ``scenario`` on ``network_cls``; everything it can observe."""
    sim = Simulation()
    topology = TOPOLOGIES[scenario["topology"]](sim)
    tracer = Tracer()
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
                arb_base=(src, dst, 1_000 + index),
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
    try:
        failure = None
        end = sim.run().hex()
    except DeliveryFailure as exc:
        failure, end = str(exc), sim.now.hex()
    resources = [
        *topology.all_links(),
        *net._tx_engines.values(),
        *net._rx_engines.values(),
    ]
    counters = [
        (
            link.name,
            link.bytes_carried,
            link.busy_time.hex(),
            link.packets_dropped,
            link.trains_dropped,
            link.max_queue_depth if isinstance(link, PriorityLink) else None,
        )
        for link in resources
    ]
    return {
        "end": end,
        "failure": failure,
        "delivered": delivered,
        "resent": resent,
        "retransmitted": (net.trains_retransmitted, net.packets_retransmitted),
        "counters": counters,
        "events": [event.to_dict() for event in tracer.events],
        "grants": [
            [e.to_dict() for e in tracer.events if (e.args or {}).get("resource") == link.name]
            for link in resources
        ],
        "metrics": tracer.metrics.snapshot(),
    }


def _same_run(scenario):
    new, ref = execute(Network, scenario), execute(ReferenceNetwork, scenario)
    if scenario["topology"] != "star":
        for result in (new, ref):
            result["events"] = sorted(map(repr, result["events"]))
    assert new == ref


@given(scenario=SCENARIOS)
@settings(max_examples=400, deadline=None)
def test_callback_trains_match_generator_trains(scenario):
    _same_run(scenario)


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
