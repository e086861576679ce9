"""Network-layer tracing: message events, link spans, retransmits.

Also covers two edge cases this layer used to mishandle: zero-byte
messages (regression: they must still deliver, with exactly one
send/deliver pair) and reading ``MessageReceipt.duration`` before
delivery (now an explicit error instead of a silent NaN).
"""

import pytest

from repro.network import (
    LossModel,
    Network,
    RetransmitPolicy,
    Simulation,
    SwitchedStar,
)
from repro.network.simulator import MessageReceipt
from repro.obs import CAT_LINK, CAT_MESSAGE, Tracer


def _traced_star(num_nodes=4, tracer=None, **net_kwargs):
    sim = Simulation()
    topo = SwitchedStar(sim, num_nodes, bandwidth_bps=10e9)
    return sim, Network(sim, topo, tracer=tracer, **net_kwargs)


def test_zero_byte_message_delivers():
    # Regression: a 0-byte payload still occupies one (header-only)
    # packet and must complete like any other message.
    tracer = Tracer()
    sim, net = _traced_star(tracer=tracer)
    event = net.send(0, 1, 0)
    done = {}
    event.add_callback(lambda ev: done.setdefault("t", sim.now))
    sim.run()
    assert done["t"] > 0.0
    # Exactly one send/deliver pair was recorded for it.
    assert tracer.count(CAT_MESSAGE, "msg.send") == 1
    assert tracer.count(CAT_MESSAGE, "msg.deliver") == 1
    (send,) = tracer.events_in(CAT_MESSAGE, "msg.send")
    assert send.args["nbytes"] == 0


def test_receipt_duration_before_delivery_raises():
    receipt = MessageReceipt(
        src=0,
        dst=1,
        nbytes=1000,
        wire_nbytes=1054,
        num_packets=1,
        compressed=False,
        sent_at=0.5,
    )
    assert not receipt.delivered
    with pytest.raises(RuntimeError, match="not delivered"):
        receipt.duration
    receipt.delivered_at = 0.75
    assert receipt.delivered
    assert receipt.duration == pytest.approx(0.25)


def test_delivered_at_recorded_exactly_once_per_message():
    tracer = Tracer()
    sim, net = _traced_star(tracer=tracer)
    receipts = []
    for dst in (1, 2, 3):
        net.send(0, dst, 50_000).add_callback(
            lambda ev: receipts.append(ev.value[1])
        )
    sim.run()
    delivers = list(tracer.events_in(CAT_MESSAGE, "msg.deliver"))
    assert len(delivers) == 3
    assert len({e.args["msg"] for e in delivers}) == 3
    assert len(receipts) == 3
    # Every msg.flight span matches its receipt's duration exactly.
    flights = {e.args["dst"]: e for e in tracer.events_in(CAT_MESSAGE, "msg.flight")}
    for receipt in receipts:
        assert receipt.delivered
        span = flights[receipt.dst]
        assert span.ts == receipt.sent_at
        assert span.dur == pytest.approx(receipt.duration)


def test_link_spans_cover_wire_bytes():
    tracer = Tracer()
    sim, net = _traced_star(tracer=tracer)
    nbytes = 500_000
    net.send(0, 1, nbytes)
    sim.run()
    spans = list(tracer.events_in(CAT_LINK, "link.xfer"))
    assert spans, "link transfers must be traced"
    # The uplink n0->sw carries every wire byte of the message.
    uplink_bytes = sum(
        e.args["nbytes"] for e in spans if e.args["resource"] == "n0->sw"
    )
    assert uplink_bytes > nbytes  # payload + headers
    for span in spans:
        assert span.dur > 0.0
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["messages_sent"] == 1
    assert counters["messages_delivered"] == 1


def test_retransmit_instants_match_counter():
    tracer = Tracer()
    sim = Simulation()
    topo = SwitchedStar(sim, 2)
    net = Network(
        sim,
        topo,
        loss=LossModel(drop_probability=0.05, seed=3),
        retransmit=RetransmitPolicy(rto_s=200e-6, max_attempts=16),
        tracer=tracer,
    )
    done = {}
    net.send(0, 1, 4 * 2**20).add_callback(lambda ev: done.setdefault("t", sim.now))
    sim.run()
    assert done["t"] is not None
    assert net.trains_retransmitted > 0
    assert tracer.count(CAT_MESSAGE, "train.retransmit") == net.trains_retransmitted
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["trains_retransmitted"] == net.trains_retransmitted


def test_untraced_network_records_nothing_and_matches_traced_time():
    def run(tracer):
        sim, net = _traced_star(tracer=tracer)
        done = {}
        net.send(0, 1, 2**20).add_callback(lambda ev: done.setdefault("t", sim.now))
        sim.run()
        return done["t"]

    tracer = Tracer()
    assert run(None) == run(tracer)
    assert len(tracer) > 0
