"""PriorityLink tests: strict priority, FIFO within class, starvation bound."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    PRIORITY_DEFAULT,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    TOS_DEFAULT,
    FatTree,
    Link,
    Network,
    PriorityLink,
    Simulation,
)
from repro.obs import Tracer

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
    tracer = Tracer()
    link.attach_tracer(tracer)
    for i in range(3):
        _track(sim, link, 100_000, PRIORITY_DEFAULT, key=(i,))
    sim.run()
    assert link.bytes_carried == 300_000
    assert max(e.args["queue_depth"] for e in tracer.events) >= 2


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


@pytest.mark.parametrize("port_cls", [Link, PriorityLink])
def test_a_queued_train_is_traced_with_its_wait(port_cls):
    # The second train asks 0.2 ms into the first one's 1 ms on the wire:
    # it waits 0.8 ms behind one train, whether the resource reserves at
    # once (a link) or grants at its service end (a priority port).
    sim, tracer = Simulation(), Tracer()
    port = port_cls(sim, GBPS, LATENCY, name="port")
    port.attach_tracer(tracer)
    for key, at in enumerate((0.0, 2e-4)):
        sim.call_at(
            at, lambda key=key: port.request(125_000, 125_000, key=(key,))
        )
    sim.run()
    spans = [(e.args["wait_s"], e.args["queue_depth"]) for e in tracer.events]
    assert spans == [(0.0, 0), (1e-3 - 2e-4, 1)]


def test_a_train_that_is_overtaken_is_traced_with_the_trains_ahead_of_it():
    # A low-class train asks 0.1 ms into a default train's 1 ms on the
    # wire; a high-class one asks at 0.2 ms and overtakes it.  Each is
    # traced behind the one train on the wire when it asked: neither the
    # low train it passed nor the high train that passed it count.
    sim, tracer = Simulation(), Tracer()
    port = PriorityLink(sim, GBPS, LATENCY, name="port")
    port.attach_tracer(tracer)
    for key, (at, priority) in enumerate(
        ((0.0, PRIORITY_DEFAULT), (1e-4, PRIORITY_LOW), (2e-4, PRIORITY_HIGH))
    ):
        sim.call_at(
            at,
            lambda key=key, priority=priority: port.request(
                125_000, 125_000, key=(key,), priority=priority
            ),
        )
    sim.run()
    spans = [
        (e.ts, e.args["wait_s"], e.args["queue_depth"]) for e in tracer.events
    ]
    assert spans == [
        (0.0, 0.0, 0),
        (1e-3, 1e-3 - 2e-4, 1),  # high
        (2e-3, 2e-3 - 1e-4, 1),  # low
    ]


def test_stage_request_rejects_unknown_priority_class():
    _, link = _link()
    with pytest.raises(ValueError, match="priority"):
        link.request(1_000, 1_000, priority=8)


def test_send_rejects_unknown_priority_class_once_per_message():
    # Trains skip the port's check: the class is validated at dispatch.
    sim = Simulation()
    net = Network(sim, FatTree(sim, 4), tos_priority={TOS_DEFAULT: 8})
    with pytest.raises(ValueError, match="priority"):
        net.send(0, 1, 1_000)


class ServeThenFinishPort(PriorityLink):
    """The port discipline before wake-ups became conditional, verbatim:
    every train it puts on the wire schedules a service-end entry."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._serving = False

    def _grant_pending(self) -> None:
        """Admit this instant's requests in (priority, key) order, then serve."""
        for request in self._take_pending():
            self._admitted += 1
            heapq.heappush(self._queue, (request[0][0], self._admitted, request))
        self._maybe_start()

    def _maybe_start(self) -> None:
        """Put the best waiting train on the wire if the port is idle."""
        if self._serving or not self._queue:
            return
        self._serving = True
        # The port is idle, so the reservation starts now.
        self._grant((heapq.heappop(self._queue)[2],))
        self.sim.call_at(self._free_at, self._finish_service)

    def _finish_service(self) -> None:
        """Free the port; same-instant arrivals compete for the next slot."""
        self._serving = False
        if not self._arbitrating:
            self._arbitrating = True
            self.sim.at_instant_end(self._grant_pending)


def _serve(port_cls, arrivals):
    """Feed ``arrivals`` to one port; grant order and traced starts.

    Dyadic sizes and times make service ends and arrivals coincide
    exactly, the case where both disciplines must admit the arrival
    before choosing the next train.
    """
    sim = Simulation()
    port = port_cls(sim, 8.0 * 2**30, 2.0**-22, name="port")  # 2**30 bytes/s
    tracer = Tracer()
    port.attach_tracer(tracer)
    granted = []
    for key, (tick, nbytes, priority) in enumerate(arrivals):

        def arrive(_, key=key, nbytes=nbytes, priority=priority):
            head = min(nbytes, 256)
            port.request(nbytes, head, key=(key,), priority=priority).add_callback(
                lambda _: granted.append((key, sim.now.hex()))
            )

        sim.timeout(tick * 2.0**-21).add_callback(arrive)
    end = sim.run()
    starts = [
        (e.ts.hex(), e.args["nbytes"], e.args["queue_depth"]) for e in tracer.events
    ]
    return granted, starts, port.busy_time.hex(), end.hex()


ARRIVALS = st.lists(
    st.tuples(
        st.integers(0, 12),  # arrival tick (2**-21 s: one 512-byte train)
        st.sampled_from([512, 1024, 2048]),
        st.sampled_from([None, PRIORITY_HIGH, PRIORITY_DEFAULT, PRIORITY_LOW]),
    ),
    min_size=1,
    max_size=10,
)


@given(arrivals=ARRIVALS)
@settings(max_examples=300, deadline=None)
def test_conditional_wakeups_serve_like_serve_then_finish(arrivals):
    assert _serve(PriorityLink, arrivals) == _serve(ServeThenFinishPort, arrivals)


def test_arrival_at_the_service_end_instant():
    # A 1024-byte train holds the port for exactly two ticks; a high and a
    # low train arrive at that very instant, after a default one queued.
    arrivals = [
        (0, 1024, PRIORITY_DEFAULT),
        (1, 512, PRIORITY_DEFAULT),
        (2, 512, PRIORITY_LOW),
        (2, 512, PRIORITY_HIGH),
        (6, 512, None),  # the port went idle at tick 5: a lone arrival
    ]
    new = _serve(PriorityLink, arrivals)
    assert new == _serve(ServeThenFinishPort, arrivals)
    granted, starts, _, _ = new
    # High beats the queued default train; the lone arrival starts at once.
    assert [key for key, _ in granted] == [0, 3, 1, 2, 4]
    assert [ts for ts, _, _ in starts][-1] == (6 * 2.0**-21).hex()


def test_uncontended_port_schedules_no_service_end():
    sim, link = _link()
    ends = []
    finish_service = link._finish_service
    link._finish_service = lambda: (ends.append(sim.now), finish_service())
    scheduled = []
    schedule = sim.schedule
    sim.schedule = lambda *entry: (scheduled.append(entry), schedule(*entry))
    for i in range(3):  # each arrives after the previous train has left
        sim.call_at(i * 1e-3, lambda i=i: _track(sim, link, 10_000, None, (i,)))
    sim.run()
    assert ends == []
    # Per train: its arrival, its hand-off and its waiter (serve-then-
    # finish added a service end each: 12).
    assert len(scheduled) == 9
