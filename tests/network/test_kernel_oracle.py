"""The production event kernel against the heap-only reference kernel.

Hypothesis generates small programs over the whole kernel surface —
timeouts (zero delay included), nested and joined processes, ``all_of``
(empty, and with already-fired members), ``Store`` put/get, events
shared by several waiters, ``call_at(now)``, instant-end hooks that
schedule same-instant work, callbacks added to fired events, and
``run(until=...)`` split over several calls — and interprets each one
on :mod:`repro.network.events` and on :mod:`.reference_kernel`.  The
complete ``(now, label)`` execution log and every value ``run()``
returns must be equal, under FIFO and under ``SeededTieBreak(1..3)``:
the ready queue, the closure-free entries and the sequence numbering of
the fast path may not reorder, drop or add a single step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import SeededTieBreak, events

from . import reference_kernel

# Multiples of 0.5 add exactly, and a small set makes steps of different
# processes collide on the same instant — the case under test.
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5, 2.0])
NUM_STORES = 2
NUM_GATES = 2

_LEAF = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("put"), st.integers(0, NUM_STORES - 1)),
    st.tuples(st.just("get"), st.integers(0, NUM_STORES - 1)),
    st.tuples(st.just("wait_gate"), st.integers(0, NUM_GATES - 1)),
    st.tuples(st.just("fire_gate"), st.integers(0, NUM_GATES - 1)),
    st.tuples(st.just("call_at"), DELAYS),
    st.tuples(st.just("hook"), st.booleans()),
    st.tuples(st.just("late_callback")),
    st.tuples(st.just("yield_fired")),
    st.tuples(st.just("all_of"), st.lists(DELAYS, max_size=3), st.booleans()),
)


def _bodies(depth):
    if depth == 0:
        return st.lists(_LEAF, max_size=4)
    nested = st.tuples(st.sampled_from(["spawn", "join"]), _bodies(depth - 1))
    return st.lists(st.one_of(_LEAF, nested), max_size=5)


PROGRAMS = st.tuples(
    st.lists(_bodies(2), min_size=1, max_size=4),
    # Non-decreasing ``until`` values: the clock is never asked to go back.
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]), max_size=3).map(sorted),
)


def execute(kernel, tie_break, program):
    """Interpret ``program`` on ``kernel``; returns ``(log, run values)``."""
    bodies, untils = program
    sim = kernel.Simulation(tie_break=tie_break)
    stores = [kernel.Store(sim) for _ in range(NUM_STORES)]
    gates = [sim.event() for _ in range(NUM_GATES)]
    log = []

    def note(label):
        log.append((sim.now, label))

    def hook(label, more):
        note(label)
        if more:  # same-instant work scheduled from inside a hook
            sim.timeout(0.0).add_callback(lambda _: note(label + " timeout0"))
            sim.call_at(sim.now, lambda: note(label + " call_at"))

    def body(pid, steps):
        note(pid + " start")
        for index, step in enumerate(steps):
            label = f"{pid}.{index}"
            kind = step[0]
            if kind == "timeout":
                note((yield sim.timeout(step[1], value=label)))
            elif kind == "put":
                stores[step[1]].put(label)
                note(label)
            elif kind == "get":
                item = yield stores[step[1]].get()
                note(f"{label} got {item}")
            elif kind == "wait_gate":
                value = yield gates[step[1]]
                note(f"{label} gate {value}")
            elif kind == "fire_gate":
                if not gates[step[1]].triggered:
                    gates[step[1]].succeed(label)
            elif kind == "call_at":
                sim.call_at(sim.now + step[1], lambda label=label: note(label))
            elif kind == "hook":
                sim.at_instant_end(
                    lambda label=label, more=step[1]: hook(label, more)
                )
            elif kind == "late_callback":
                sim.event().succeed(label).add_callback(lambda ev: note(ev.value))
            elif kind == "yield_fired":
                note((yield sim.event().succeed(label)))
            elif kind == "all_of":
                members = [sim.timeout(delay, value=delay) for delay in step[1]]
                if step[2]:
                    members.append(sim.event().succeed("fired"))
                values = yield sim.all_of(members)
                note(f"{label} all_of {values}")
            elif kind == "spawn":
                sim.process(body(label, step[1]))
            else:
                assert kind == "join"
                value = yield sim.process(body(label, step[1]))
                note(f"{label} joined {value}")
        return pid + " done"

    for number, steps in enumerate(bodies):
        sim.process(body(f"p{number}", steps))
    returned = []
    for until in untils:
        returned.append(sim.run(until=until))
        note(f"paused at {until}")
        # Work queued between two run() calls, at the instant it stopped.
        sim.call_at(sim.now, lambda until=until: note(f"resumed {until}"))
        sim.timeout(0.5).add_callback(lambda _, until=until: note(f"later {until}"))
    returned.append(sim.run())
    returned.append(sim.now)
    return log, returned


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
@given(program=PROGRAMS)
@settings(max_examples=150, deadline=None)
def test_same_log_and_run_values_as_the_reference_kernel(seed, program):
    def policy():
        return None if seed is None else SeededTieBreak(seed)

    expected = execute(reference_kernel, policy(), program)
    assert execute(events, policy(), program) == expected


def test_the_interpreter_reaches_every_step_kind():
    """A fixed program covering each step once (guards the generator)."""
    steps = [
        ("timeout", 0.0),
        ("spawn", [("get", 0), ("wait_gate", 1), ("timeout", 1.0)]),
        ("put", 0),
        ("hook", True),
        ("call_at", 0.0),
        ("late_callback",),
        ("yield_fired",),
        ("all_of", [], False),
        ("all_of", [0.5, 0.0], True),
        ("join", [("timeout", 0.5), ("fire_gate", 1)]),
        ("call_at", 1.5),
    ]
    program = ([steps, [("wait_gate", 1), ("get", 1)]], [0.0, 0.5])
    log, returned = execute(events, None, program)
    assert (log, returned) == execute(reference_kernel, None, program)
    assert returned == [0.0, 0.5, 2.5, 2.5]
    labels = [label for _, label in log]
    assert "p0.1.0 got p0.2" in labels and "p0.9 joined p0.9 done" in labels
    assert "p0.3 timeout0" in labels and "p0.3 call_at" in labels
    assert labels.index("p0.3") > labels.index("p0.4")  # hook after call_at(now)
