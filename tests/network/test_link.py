"""Link timing and contention tests."""

import pytest

from repro.network import Link, PriorityLink, Route, Simulation


def _deliver(link, nbytes, **kwargs):
    """Delivery of a whole train: ``request`` with the head the train.

    The last bit left the sender ``latency_s`` before this event.
    """
    return link.request(nbytes, nbytes, **kwargs)


def test_serialization_time():
    sim = Simulation()
    link = Link(sim, bandwidth_bps=10e9, latency_s=0.0)
    # 1250 bytes at 10 Gb/s = 1 microsecond
    assert link.serialization_time(1250) == pytest.approx(1e-6)


def test_delivery_time_includes_latency():
    sim = Simulation()
    link = Link(sim, bandwidth_bps=10e9, latency_s=5e-6)
    times = {}
    delivered = _deliver(link, 1250)
    delivered.add_callback(lambda ev: times.setdefault("delivered", sim.now))
    sim.run()
    # The last bit left one propagation delay before delivery.
    assert times["delivered"] - link.latency_s == pytest.approx(1e-6)
    assert times["delivered"] == pytest.approx(6e-6)


def test_fifo_contention():
    sim = Simulation()
    link = Link(sim, bandwidth_bps=8e9, latency_s=0.0)  # 1 byte/ns
    done = []
    for i in range(3):
        delivered = _deliver(link, 1000)
        delivered.add_callback(lambda ev, i=i: done.append((i, sim.now)))
    sim.run()
    # Serialized back-to-back: 1 us each.
    assert done == [
        (0, pytest.approx(1e-6)),
        (1, pytest.approx(2e-6)),
        (2, pytest.approx(3e-6)),
    ]


def test_link_idles_between_bursts():
    sim = Simulation()
    link = Link(sim, bandwidth_bps=8e9, latency_s=0.0)

    def proc():
        yield _deliver(link, 1000)
        yield sim.timeout(10e-6)
        yield _deliver(link, 1000)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == pytest.approx(12e-6)


def test_utilization_accounting():
    sim = Simulation()
    link = Link(sim, bandwidth_bps=8e9, latency_s=0.0)
    _deliver(link, 1000)
    sim.run()
    assert link.bytes_carried == 1000
    assert link.utilization(2e-6) == pytest.approx(0.5)
    assert link.utilization(0.0) == 0.0


def test_invalid_parameters():
    sim = Simulation()
    with pytest.raises(ValueError):
        Link(sim, bandwidth_bps=0, latency_s=0)
    with pytest.raises(ValueError):
        Link(sim, bandwidth_bps=1e9, latency_s=-1)
    link = Link(sim, bandwidth_bps=1e9, latency_s=0)
    with pytest.raises(ValueError):
        _deliver(link, -1)


@pytest.mark.parametrize("delay", [float("nan"), -5.0, -1e-12])
def test_request_rejects_nan_and_negative_delay(delay):
    # A NaN hand-off time never compares equal to the clock, so the run
    # would spin forever; a negative one would move the clock backwards.
    sim = Simulation()
    link = Link(sim, bandwidth_bps=8e9, latency_s=1e-6)
    with pytest.raises(ValueError, match="delay"):
        link.request(1000, 1000, delay=delay)
    assert sim.run() == 0.0
    assert link.bytes_carried == 0


@pytest.mark.parametrize("delay", [float("nan"), -1e-6])
def test_route_rejects_nan_and_negative_forwarding_delay(delay):
    # Packet trains hand off after it without passing ``request``'s check.
    sim = Simulation()
    link = Link(sim, bandwidth_bps=8e9, latency_s=1e-6)
    with pytest.raises(ValueError, match="forwarding delay"):
        Route((link, link), delay)


def test_zero_byte_transmit_is_latency_only():
    sim = Simulation()
    link = Link(sim, bandwidth_bps=1e9, latency_s=3e-6)
    times = []
    delivered = _deliver(link, 0)
    delivered.add_callback(lambda ev: times.append(sim.now))
    sim.run()
    assert times == [pytest.approx(3e-6)]


def test_zero_byte_keyed_transmit_fires_at_instant_end():
    """Regression: a keyed zero-byte transmit on a zero-latency link.

    Arbitrated grants run at instant end, and ``_grant_pending``
    schedules the completion events for ``now`` — entries landing on
    the *current* instant from inside a hook must still fire instead of
    being skipped by the drained-instant bookkeeping.
    """
    sim = Simulation()
    link = Link(sim, bandwidth_bps=8e9, latency_s=0.0)
    times = {}
    delivered = _deliver(link, 0, key=(0,))
    delivered.add_callback(lambda ev: times.setdefault("delivered", sim.now))
    sim.run()
    # Zero latency: the last bit left at the same instant.
    assert times == {"delivered": 0.0}


def test_zero_byte_keyed_transmit_unblocks_waiting_process():
    sim = Simulation()
    link = Link(sim, bandwidth_bps=8e9, latency_s=2e-6)

    def proc():
        yield _deliver(link, 0, key=("z",))
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == pytest.approx(2e-6)


def test_same_instant_zero_byte_grants_follow_key_order():
    sim = Simulation()
    link = Link(sim, bandwidth_bps=8e9, latency_s=0.0)
    order = []
    # Issued in reverse key order; arbitration must re-sort by key, so
    # the non-zero frame under key 0 serializes ahead of the zero-byte
    # frames even though it was requested last.
    for key, nbytes in ((2, 0), (1, 0), (0, 1000)):
        delivered = _deliver(link, nbytes, key=(key,))
        delivered.add_callback(lambda ev, k=key: order.append((k, sim.now)))
    sim.run()
    assert [k for k, _ in order] == [0, 1, 2]
    assert all(t == pytest.approx(1e-6) for _, t in order)


def test_nan_parameters_rejected():
    sim = Simulation()
    with pytest.raises(ValueError):
        Link(sim, bandwidth_bps=float("nan"), latency_s=0.0)
    with pytest.raises(ValueError):
        Link(sim, bandwidth_bps=1e9, latency_s=float("nan"))
    Link(sim, bandwidth_bps=float("inf"), latency_s=float("inf"))  # legal


NBYTES, HEAD, DELAY = 64_000, 1_500, 1e-6


def _busy_link(cls=Link):
    """A link with one train already on the wire, so ``start > 0``."""
    sim = Simulation()
    link = cls(sim, bandwidth_bps=10e9, latency_s=2e-6)
    _deliver(link, 10_000)
    return sim, link


def _times(sim, event):
    fired = []
    event.add_callback(lambda ev: fired.append(sim.now))
    return fired


@pytest.mark.parametrize("cls", [Link, PriorityLink])
def test_inner_stage_request_fires_once_at_head_arrival_plus_delay(cls):
    """Exactly (``==``) when head arrival + ``timeout(delay)`` wake the
    sender on a twin link, in one wake-up instead of two."""
    twin_sim, twin = _busy_link(cls)

    def two_wakeups():
        yield twin.request(NBYTES, HEAD)
        yield twin_sim.timeout(DELAY)
        return twin_sim.now

    expected = twin_sim.process(two_wakeups())
    twin_end = twin_sim.run()

    sim, link = _busy_link(cls)
    fired = _times(sim, link.request(NBYTES, HEAD, DELAY))
    end = sim.run()
    start = link.serialization_time(10_000)
    assert fired == [expected.value]
    assert fired == [start + link.serialization_time(HEAD) + 2e-6 + DELAY]
    # Nobody awaited the landing, yet it still bounds the run.
    assert end == twin_end == start + link.serialization_time(NBYTES) + 2e-6
    assert end > fired[0]


@pytest.mark.parametrize("cls", [Link, PriorityLink])
def test_final_stage_request_fires_at_delivery(cls):
    sim, link = _busy_link(cls)
    fired = _times(sim, link.request(NBYTES, NBYTES))
    assert sim.run() == fired[0]
    finish = link.serialization_time(10_000) + link.serialization_time(NBYTES)
    assert fired == [finish + 2e-6]


def test_dropped_stage_request_adds_the_delay_to_delivery():
    twin_sim, twin = _busy_link()

    def deliver_then_rto():
        yield _deliver(twin, NBYTES)
        yield twin_sim.timeout(3e-3)
        return twin_sim.now

    expected = twin_sim.process(deliver_then_rto())
    twin_sim.run()
    sim, link = _busy_link()
    fired = _times(sim, link.request(NBYTES, NBYTES, 3e-3))
    sim.run()
    assert fired == [expected.value]


def test_run_until_below_the_horizon_returns_until():
    sim = Simulation()
    link = Link(sim, bandwidth_bps=8e9, latency_s=1e-6)
    fired = _times(sim, link.request(8_000, 1_000))  # head 1 us, train 8 us
    assert sim.run(until=4e-6) == 4e-6
    assert fired == [pytest.approx(2e-6)]
    assert sim.run() == pytest.approx(9e-6)  # finish + latency, unobserved
    assert sim.now == sim.run()


def test_same_instant_requests_granted_in_key_order():
    sim = Simulation()
    link = Link(sim, bandwidth_bps=8e9, latency_s=0.0)
    order = []
    for key in (2, 0, 1):  # issued out of key order
        link.request(1000, 1000, key=(key,)).add_callback(
            lambda ev, k=key: order.append((k, sim.now))
        )
    with pytest.raises(ValueError):
        link.request(-1, 0)
    sim.run()
    assert [k for k, _ in order] == [0, 1, 2]
    assert [t for _, t in order] == [pytest.approx(n * 1e-6) for n in (1, 2, 3)]
