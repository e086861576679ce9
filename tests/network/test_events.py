"""Tests for the discrete-event kernel."""

import pytest

from repro.network import Simulation, Store


def test_timeout_advances_clock():
    sim = Simulation()
    fired = []
    sim.timeout(5.0).add_callback(lambda ev: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]
    assert sim.now == 5.0


def test_timeout_ordering():
    sim = Simulation()
    order = []
    sim.timeout(3.0).add_callback(lambda ev: order.append("c"))
    sim.timeout(1.0).add_callback(lambda ev: order.append("a"))
    sim.timeout(2.0).add_callback(lambda ev: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_a_withdrawn_entry_neither_runs_nor_moves_the_clock():
    sim = Simulation()
    ran = []
    for time, tag in ((1.0, "a"), (3.0, "b"), (3.0, "c"), (2.0, "d")):
        sim.schedule(time, ran.append, tag)
    sim.cancel(3.0, ran.append, "b")
    sim.cancel(3.0, ran.append, "c")
    assert sim.run() == 2.0
    assert ran == ["a", "d"]
    with pytest.raises(ValueError):
        sim.cancel(4.0, ran.append, "e")


def test_same_time_fifo():
    sim = Simulation()
    order = []
    for i in range(5):
        sim.timeout(1.0).add_callback(lambda ev, i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    sim = Simulation()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_process_sequencing():
    sim = Simulation()
    trace = []

    def proc():
        trace.append(("start", sim.now))
        yield sim.timeout(2.0)
        trace.append(("mid", sim.now))
        yield sim.timeout(3.0)
        trace.append(("end", sim.now))

    sim.process(proc())
    sim.run()
    assert trace == [("start", 0.0), ("mid", 2.0), ("end", 5.0)]


def test_process_return_value():
    sim = Simulation()

    def proc():
        yield sim.timeout(1.0)
        return 42

    p = sim.process(proc())
    sim.run()
    assert p.triggered and p.value == 42


def test_process_receives_event_value():
    sim = Simulation()
    got = []

    def proc():
        value = yield sim.timeout(1.0, value="hello")
        got.append(value)

    sim.process(proc())
    sim.run()
    assert got == ["hello"]


def test_process_must_yield_events():
    sim = Simulation()

    def bad():
        yield 3

    sim.process(bad())
    with pytest.raises(TypeError):
        sim.run()


def test_all_of_waits_for_every_event():
    sim = Simulation()
    times = []
    gate = sim.all_of([sim.timeout(1.0), sim.timeout(4.0), sim.timeout(2.0)])
    gate.add_callback(lambda ev: times.append(sim.now))
    sim.run()
    assert times == [4.0]


def test_all_of_empty_fires_immediately():
    sim = Simulation()
    fired = []
    sim.all_of([]).add_callback(lambda ev: fired.append(sim.now))
    sim.run()
    assert fired == [0.0]


def test_event_double_trigger_rejected():
    sim = Simulation()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_run_until_stops_early():
    sim = Simulation()
    fired = []
    sim.timeout(10.0).add_callback(lambda ev: fired.append(True))
    sim.run(until=5.0)
    assert not fired
    assert sim.now == 5.0


def test_run_until_never_moves_the_clock_backwards():
    sim = Simulation()
    sim.timeout(5.0)
    assert sim.run(until=3.0) == 3.0
    for until in (1.0, float("nan")):
        with pytest.raises(ValueError, match="past"):
            sim.run(until=until)
        assert sim.now == 3.0
    assert sim.run(until=3.0) == 3.0  # ``until == now`` stays legal
    assert sim.run() == 5.0


def test_store_put_then_get():
    sim = Simulation()
    store = Store(sim)
    store.put("x")
    got = []

    def proc():
        item = yield store.get()
        got.append((item, sim.now))

    sim.process(proc())
    sim.run()
    assert got == [("x", 0.0)]


def test_store_get_blocks_until_put():
    sim = Simulation()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, sim.now))

    def producer():
        yield sim.timeout(3.0)
        store.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [("late", 3.0)]


def test_store_fifo_order():
    sim = Simulation()
    store = Store(sim)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.process(consumer())
    for item in "abc":
        store.put(item)
    sim.run()
    assert got == ["a", "b", "c"]


def test_nan_times_rejected():
    """NaN compares false with everything, so ``delay < 0`` let it through
    and a NaN heap key silently broke the heap order."""
    sim = Simulation()
    with pytest.raises(ValueError):
        sim.timeout(float("nan"))
    with pytest.raises(ValueError):
        sim.call_at(float("nan"), lambda: None)
    sim.timeout(1.0)
    assert sim.run() == 1.0  # nothing was queued by the rejected calls


def test_clock_never_goes_backwards_around_a_rejected_nan():
    sim = Simulation()
    fired = []
    for delay in (3.0, float("nan"), 1.0, 2.0, 0.5):
        try:
            sim.timeout(delay).add_callback(lambda ev: fired.append(sim.now))
        except ValueError:
            assert delay != delay
    assert sim.run() == 3.0
    assert fired == [0.5, 1.0, 2.0, 3.0]


def test_infinite_delay_stays_legal():
    sim = Simulation()
    fired = []
    sim.timeout(float("inf")).add_callback(lambda ev: fired.append(sim.now))
    sim.call_at(float("inf"), lambda: fired.append("call_at"))
    assert sim.run(until=10.0) == 10.0 and not fired
    assert sim.run() == float("inf")
    assert fired == ["call_at", float("inf")]  # the callback is deferred


def test_callbacks_are_deferred_never_inline():
    sim = Simulation()
    order = []
    ev = sim.event()
    ev.add_callback(lambda e: order.append(("callback", e.value)))
    ev.succeed("v")
    order.append("after succeed")
    sim.run()
    assert order == ["after succeed", ("callback", "v")]


def test_horizon_extends_the_run_without_a_queue_entry():
    sim = Simulation()
    sim.timeout(1.0)
    sim.extend_horizon(2.5)
    sim.extend_horizon(2.0)  # a maximum: never shrinks
    assert sim.run(until=0.5) == 0.5
    assert sim.run(until=2.0) == 2.0  # the entry at 1.0 ran; horizon clamped
    assert sim.run() == 2.5 and sim.now == 2.5
    assert sim.run() == 2.5
