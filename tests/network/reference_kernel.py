"""The heap-only event kernel, kept verbatim as the test-side oracle.

This is ``repro.network.events`` as it stood before the fast path
(closure-free entries, same-instant ready queue, run horizon): every
entry -- timeouts, process starts, one closure per callback delivery --
round-trips one ``(time, key(seq), seq)`` heap.  It is slow and obviously
ordered, which is what makes it a reference:
``test_kernel_oracle`` runs generated programs on both kernels and
requires the same ``(now, label)`` execution log and the same ``run()``
return values, under FIFO and under ``SeededTieBreak``.  The tie-break
policies themselves are shared with production (they are the input, not
the thing under test).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, List, Optional

from repro.network.events import FIFO_TIE_BREAK, TieBreak


class Event:
    """A one-shot occurrence processes can wait on."""

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._callbacks: List[Callable[["Event"], None]] = []

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event now, delivering ``value`` to waiters."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        self.sim._schedule_callbacks(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event fires (immediately if fired)."""
        if self.triggered:
            fn(self)
        else:
            self._callbacks.append(fn)


class Process(Event):
    """A running generator; itself an event that fires on completion."""

    def __init__(self, sim: "Simulation", generator: Generator) -> None:
        super().__init__(sim)
        self._generator = generator
        sim._immediate(lambda: self._resume(None))

    def _resume(self, value: Any) -> None:
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        if not isinstance(target, Event):
            raise TypeError(
                f"processes must yield Event objects, got {type(target).__name__}"
            )
        target.add_callback(lambda ev: self._resume(ev.value))


class Simulation:
    """Event queue and virtual clock.

    ``tie_break`` orders simultaneous entries (default FIFO); see
    :class:`TieBreak`.
    """

    def __init__(self, tie_break: Optional[TieBreak] = None) -> None:
        self.now = 0.0
        self.tie_break = tie_break if tie_break is not None else FIFO_TIE_BREAK
        self._heap: List = []
        self._counter = itertools.count()
        self._epilogue: List[Callable[[], None]] = []

    # -- event construction -------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event (trigger it with ``succeed``)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires ``delay`` simulated seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        ev = Event(self)
        self._at(self.now + delay, lambda: ev.succeed(value))
        return ev

    def process(self, generator: Generator) -> Process:
        """Start a generator as a concurrent process."""
        return Process(self, generator)

    def all_of(self, events: List[Event]) -> Event:
        """An event firing once every event in ``events`` has fired."""
        gate = Event(self)
        remaining = [len(events)]
        if not events:
            self._immediate(lambda: gate.succeed([]))
            return gate

        def arm(ev: Event) -> None:
            def on_fire(_: Event) -> None:
                remaining[0] -= 1
                if remaining[0] == 0:
                    gate.succeed([e.value for e in events])

            ev.add_callback(on_fire)

        for ev in events:
            arm(ev)
        return gate

    # -- scheduling ----------------------------------------------------------

    def _at(self, time: float, fn: Callable[[], None]) -> None:
        seq = next(self._counter)
        heapq.heappush(self._heap, (time, self.tie_break.key(seq), seq, fn))

    def _immediate(self, fn: Callable[[], None]) -> None:
        self._at(self.now, fn)

    def call_at(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        self._at(time, fn)

    def at_instant_end(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once every event at the *current* instant has run.

        The hook fires after the queue holds no further entries at
        ``now`` and before the clock advances — the point where all
        simultaneous requests are known, which is what deterministic
        resource arbitration (see :meth:`Link.request
        <repro.network.link.Link.request>`) needs.  Hooks may schedule new
        same-instant work; it is processed before time moves on.
        """
        self._epilogue.append(fn)

    def _schedule_callbacks(self, event: Event) -> None:
        callbacks, event._callbacks = event._callbacks, []
        for fn in callbacks:
            self._at(self.now, lambda fn=fn: fn(event))

    # -- execution -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the queue drains (or ``until`` is reached).

        Returns the final simulation time.
        """
        while self._heap or self._epilogue:
            next_time = self._heap[0][0] if self._heap else None
            if self._epilogue and (next_time is None or next_time > self.now):
                # The current instant has drained: run instant-end hooks
                # (which may schedule more work at ``now``) before the
                # clock moves.
                hooks, self._epilogue = self._epilogue, []
                for hook in hooks:
                    hook()
                continue
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.now = until
                return self.now
            _, _, _, fn = heapq.heappop(self._heap)
            self.now = next_time
            fn()
        return self.now


class Store:
    """Unbounded FIFO queue connecting producer and consumer processes."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self._items: deque = deque()
        self._getters: deque = deque()

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event that fires with the next available item."""
        ev = self.sim.event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)
