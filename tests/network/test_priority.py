"""PriorityLink tests: strict priority, FIFO within class, starvation bound."""

import pytest

from repro.network import (
    PRIORITY_DEFAULT,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PriorityLink,
    Simulation,
)

GBPS = 1e9
LATENCY = 1e-6


def _link(bandwidth_bps=GBPS):
    sim = Simulation()
    return sim, PriorityLink(sim, bandwidth_bps, LATENCY, name="port")


def _track(sim, link, nbytes, priority, key):
    done = {}
    delivered = link.request(nbytes, nbytes, key=key, priority=priority)
    delivered.add_callback(lambda e: done.setdefault("t", sim.now))
    return done


def test_high_priority_served_before_low_at_same_instant():
    sim, link = _link()
    low = _track(sim, link, 100_000, PRIORITY_LOW, key=(0,))
    high = _track(sim, link, 100_000, PRIORITY_HIGH, key=(1,))
    sim.run()
    assert high["t"] < low["t"]


def test_fifo_within_a_class():
    sim, link = _link()
    first = _track(sim, link, 100_000, PRIORITY_DEFAULT, key=(0,))
    second = _track(sim, link, 100_000, PRIORITY_DEFAULT, key=(1,))
    sim.run()
    assert first["t"] < second["t"]


def test_same_instant_admission_orders_by_key_within_class():
    # Issued in reverse key order at the same instant: admission sorts
    # by (priority, key), so key (0,) is still served first.
    sim, link = _link()
    later = _track(sim, link, 100_000, PRIORITY_DEFAULT, key=(1,))
    earlier = _track(sim, link, 100_000, PRIORITY_DEFAULT, key=(0,))
    sim.run()
    assert earlier["t"] < later["t"]


def test_non_preemptive_head_of_line():
    # A low train already on the wire is not preempted: the high train
    # waits out the low train's full serialization, no more.
    sim, link = _link()
    low_bytes, high_bytes = 1_000_000, 10_000
    low = _track(sim, link, low_bytes, PRIORITY_LOW, key=(0,))
    holder = {}

    def inject():
        holder["high"] = _track(sim, link, high_bytes, PRIORITY_HIGH, key=(1,))

    sim.call_at(1e-9, inject)  # after service of the low train began
    sim.run()
    high = holder["high"]
    expected = (low_bytes + high_bytes) * 8 / GBPS + LATENCY
    assert abs(high["t"] - expected) < 1e-12
    assert low["t"] < high["t"]


def test_starvation_bound_under_low_priority_flood():
    # With N low trains queued, a later high train waits at most the
    # in-service train plus its own serialization — it jumps the rest
    # of the queue.
    sim, link = _link()
    train = 100_000
    lows = [_track(sim, link, train, PRIORITY_LOW, key=(i,)) for i in range(8)]
    holder = {}

    def inject():
        holder["high"] = _track(sim, link, train, PRIORITY_HIGH, key=(99,))

    sim.call_at(1e-9, inject)
    sim.run()
    high = holder["high"]
    one_train_s = train * 8 / GBPS
    # Bound: the in-service low train finishes, then the high train.
    assert high["t"] <= 2 * one_train_s + LATENCY + 1e-12
    # Every queued low train that had not started is served after it.
    assert sum(1 for low in lows if low["t"] > high["t"]) == 7


def test_all_default_priority_matches_plain_fifo_order():
    sim, link = _link()
    done = [
        _track(sim, link, 50_000, None, key=(i,)) for i in range(4)
    ]
    sim.run()
    times = [d["t"] for d in done]
    assert times == sorted(times)
    assert len(set(times)) == 4


def test_accounting_and_queue_depth():
    sim, link = _link()
    for i in range(3):
        _track(sim, link, 100_000, PRIORITY_DEFAULT, key=(i,))
    sim.run()
    assert link.bytes_carried == 300_000
    assert link.max_queue_depth >= 2


def test_stage_requests_are_admitted_in_priority_then_key_order():
    # Inner stages and final stages share one admission: issued
    # worst-first at one instant, served by (priority, key).
    sim, link = _link()
    order = []
    for priority, key in (
        (PRIORITY_LOW, (0,)),
        (PRIORITY_DEFAULT, (2,)),
        (None, (1,)),  # None rides the default class
        (PRIORITY_HIGH, (9,)),
    ):
        head = 1_000 if key == (2,) else 100_000  # one inner stage among finals
        link.request(100_000, head, key=key, priority=priority).add_callback(
            lambda e, key=key: order.append(key)
        )
    sim.run()
    assert order == [(9,), (1,), (2,), (0,)]
    assert link.bytes_carried == 400_000


def test_stage_request_rejects_unknown_priority_class():
    _, link = _link()
    with pytest.raises(ValueError, match="priority"):
        link.request(1_000, 1_000, priority=8)
