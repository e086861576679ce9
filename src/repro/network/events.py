"""A small discrete-event simulation kernel.

The evaluation infrastructure needs wall-clock-faithful modeling of
concurrent transfers (link contention at the aggregator is the paper's
central bottleneck), so we build a generator-based process model in the
style of SimPy: processes are Python generators that ``yield`` events;
the kernel resumes them when those events fire.

Only the features the reproduction needs are implemented: one-shot
events, timeouts, processes, and FIFO stores (used as message queues).

Equal-timestamp ordering is an explicit, pluggable policy.  The kernel
totally orders simultaneous entries by a :class:`TieBreak` key (FIFO by
default); the determinism sanitizer re-runs scenarios under
:class:`SeededTieBreak` to perturb exactly that ordering — any outcome
that changes was racing on event order all along.

Per-instant order, the contract resource arbitration builds on: first
the entries scheduled for ``now`` before the instant began, then those
the instant itself appends, then the
:meth:`Simulation.before_arbitration` hooks (what they queue at ``now``
still runs in this first round), then the
:meth:`Simulation.at_instant_end` hooks (whose same-instant work runs
the same way), and only then the clock.  An entry is ``(time, order,
fn, arg)`` run as ``fn(arg)`` — no closure per wake-up.  Under FIFO an
entry for ``time == now`` skips the heap for a deque: every heap entry
stamped ``now`` predates the instant, so its sequence number is below
anything the instant appends, and heap-then-deque *is* ``(time, seq)``
order.  A policy that overrides ``key`` reorders within the instant, so
it keeps every entry on the heap.

A run ends when the last *reserved transfer* has landed, observed or
not: a resource whose transfer nobody awaits reports the landing time
(:meth:`Simulation.extend_horizon`) instead of queueing an event without
waiters, and ``run()`` returns the later of last entry and horizon.
Lazily evaluated work (express message runs) is settled through
:meth:`Simulation.at_pause` when ``run(until=...)`` stops short, and
withdraws an entry it queued ahead (:meth:`Simulation.cancel`) when its
plan changes, so a plan given up never moves the clock.

Invariants: the clock only moves forward, and only between instants;
simulated time is the sole time source (no wall-clock reads); all
hashing is explicit splitmix64, independent of ``PYTHONHASHSEED``;
events fire exactly once, and their waiters are queued, never run inline.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    """One splitmix64 mixing round (deterministic, hash-seed independent)."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def flow_hash(*fields: int) -> int:
    """Deterministic 64-bit hash of integer flow fields.

    Chains one splitmix64 round per field, so the result is a pure
    function of the field values — independent of ``PYTHONHASHSEED``,
    process, and platform.  ECMP route selection
    (:mod:`repro.network.topology`) hashes ``(src, dst, tos, hop)``
    through this to pick among equal-cost next hops: the same flow
    always takes the same path, which is exactly the property the
    determinism sanitizer's replay check needs.
    """
    acc = len(fields) & _MASK64
    for field in fields:
        acc = _splitmix64(acc ^ (field & _MASK64))
    return acc


class TieBreak:
    """Policy ordering same-timestamp entries in the event queue.

    ``key(seq)`` maps an entry's global insertion sequence number to the
    secondary sort key used when timestamps are equal; the sequence
    number itself remains the final tiebreaker, so every policy yields a
    deterministic total order.  The default policy is strict FIFO.
    """

    name = "fifo"

    def key(self, seq: int) -> int:
        return 0


#: The default policy: simultaneous entries run in insertion order.
FIFO_TIE_BREAK = TieBreak()


class SeededTieBreak(TieBreak):
    """Deterministically shuffled ordering of simultaneous entries.

    Each insertion sequence number maps through splitmix64 keyed by
    ``seed`` — the same seed always produces the same perturbation, and
    no Python ``hash()`` is involved, so runs are reproducible across
    processes regardless of ``PYTHONHASHSEED``.
    """

    name = "seeded"

    def __init__(self, seed: int = 1) -> None:
        self.seed = int(seed)

    def key(self, seq: int) -> int:
        return _splitmix64(seq ^ _splitmix64(self.seed))


class Event:
    """A one-shot occurrence processes can wait on."""

    __slots__ = ("sim", "triggered", "value", "_callbacks")

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._callbacks: List[Callable[["Event"], None]] = []

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event now; waiters run as queue entries, never inline."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        sim = self.sim
        for fn in self._callbacks:
            sim.schedule(sim.now, fn, self)
        self._callbacks.clear()
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event fires (immediately if fired)."""
        if self.triggered:
            fn(self)
        else:
            self._callbacks.append(fn)


class Process(Event):
    """A running generator; itself an event that fires on completion."""

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulation", generator: Generator) -> None:
        super().__init__(sim)
        self._generator = generator
        # Started by "resuming" from itself: untriggered, so it sends None.
        sim.schedule(sim.now, self._resume, self)

    def _resume(self, fired: Event) -> None:
        try:
            target = self._generator.send(fired.value)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        if not isinstance(target, Event):
            raise TypeError(
                f"processes must yield Event objects, got {type(target).__name__}"
            )
        target.add_callback(self._resume)


def _call(fn: Callable[[], None]) -> None:
    fn()


class Simulation:
    """Event queue and virtual clock.

    ``tie_break`` orders simultaneous entries (default FIFO); see
    :class:`TieBreak`.
    """

    def __init__(self, tie_break: Optional[TieBreak] = None) -> None:
        self.now = 0.0
        self.tie_break = tie_break if tie_break is not None else FIFO_TIE_BREAK
        self._heap: List[Tuple] = []  # (time, order, fn, arg)
        self._ready: Deque[Tuple] = deque()  # (fn, arg) appended at ``now``
        #: Only a policy that inherits the constant key may bypass the heap.
        self._fifo = type(self.tie_break).key is TieBreak.key
        self._seq = 0
        self._epilogue: List[Callable[[], None]] = []
        self._horizon = 0.0
        #: The last instant whose at-instant-end hooks have run.
        self._hooked_at = -float("inf")
        self._pause_hooks: List[Callable[[], None]] = []
        self._planners: List[Callable[[], None]] = []

    # -- event construction -------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event (trigger it with ``succeed``)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires ``delay`` simulated seconds from now."""
        if not delay >= 0:  # also rejects NaN, which would corrupt the heap
            raise ValueError(f"negative delay: {delay}")
        ev = Event(self)
        self.schedule(self.now + delay, ev.succeed, value)
        return ev

    def process(self, generator: Generator) -> Process:
        """Start a generator as a concurrent process."""
        return Process(self, generator)

    def all_of(self, events: List[Event]) -> Event:
        """An event firing once every event in ``events`` has fired."""
        gate = Event(self)
        remaining = [len(events)]
        if not events:
            self.schedule(self.now, gate.succeed, [])
            return gate

        def on_fire(_: Event) -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                gate.succeed([e.value for e in events])

        for ev in events:
            ev.add_callback(on_fire)
        return gate

    # -- scheduling ----------------------------------------------------------

    def schedule(self, time: float, fn: Callable[[Any], Any], arg: Any) -> None:
        """Queue ``fn(arg)`` for absolute ``time``, unchecked: for resources
        whose times derive from ``now``; :meth:`call_at` is the checked form."""
        if self._fifo and time == self.now:
            self._ready.append((fn, arg))
            return
        seq = self._seq
        self._seq = seq + 1
        order = seq if self._fifo else (self.tie_break.key(seq), seq)
        heapq.heappush(self._heap, (time, order, fn, arg))

    def cancel(self, time: float, fn: Callable[[Any], Any], arg: Any) -> None:
        """Withdraw the entry :meth:`schedule` queued for a later ``time``
        as ``fn(arg)``: it neither runs nor moves the clock.  For lazily
        evaluated work whose plan changed before it was due."""
        heap = self._heap
        for index, entry in enumerate(heap):
            if entry[0] == time and entry[2] == fn and entry[3] == arg:
                last = heap.pop()
                if index < len(heap):
                    heap[index] = last
                    heapq.heapify(heap)
                return
        raise ValueError(f"no entry queued for {time} to withdraw")

    def call_at(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run at absolute simulated ``time``."""
        if not time >= self.now:  # also rejects NaN
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        self.schedule(time, _call, fn)

    def at_instant_end(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once every event at the *current* instant has run.

        The hook fires after the queue holds no further entries at
        ``now`` and before the clock advances — the point where all
        simultaneous requests are known, which is what deterministic
        resource arbitration (see :meth:`Link.request
        <repro.network.link.Link>`) needs.  Hooks may schedule new
        same-instant work; it is processed before time moves on.
        """
        self._epilogue.append(fn)

    def before_arbitration(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once the instant's first-round entries have run,
        before its first :meth:`at_instant_end` hook.

        Every request of the first round is then known and none is
        granted; what ``fn`` queues at ``now`` runs in that round too.
        """
        self._planners.append(fn)

    def first_round(self) -> bool:
        """Whether no :meth:`at_instant_end` hook has run yet at ``now``.

        A request staged in the first round joins the instant's first
        arbitration; one staged later (after a zero-lag hand-off) finds
        that round's grants already made.
        """
        return self._hooked_at != self.now

    def at_pause(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` whenever :meth:`run` stops at its ``until``.

        For lazily evaluated work: the clock then stands at ``until``
        with every entry up to it run, and ``fn`` brings what it holds
        up to that instant.  Unlike :meth:`at_instant_end`, the hook
        stays registered.
        """
        self._pause_hooks.append(fn)

    def extend_horizon(self, time: float) -> None:
        """Keep :meth:`run` from ending before ``time``: how a resource
        accounts for a reserved transfer whose landing nobody awaits,
        without a queue entry firing into an empty callback list."""
        if time > self._horizon:
            self._horizon = time

    # -- execution -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the queue drains (or ``until`` is reached).

        Returns the final simulation time: the later of the last entry
        and the horizon (:meth:`extend_horizon`), clamped by ``until``,
        which cannot lie before ``now``: the clock only moves forward.
        """
        if until is not None and not until >= self.now:  # also rejects NaN
            raise ValueError(f"cannot run until the past: {until} < {self.now}")
        heap, ready, pop = self._heap, self._ready, heapq.heappop
        planners = self._planners  # emptied in place, never rebound
        while True:
            now = self.now
            while heap and heap[0][0] == now:  # scheduled before this instant
                _, _, fn, arg = pop(heap)
                fn(arg)
            while ready:  # appended during it, in append order
                fn, arg = ready.popleft()
                fn(arg)
            if planners:  # still the first round
                hooks = planners[:]
                planners.clear()
                for hook in hooks:
                    hook()
                continue
            if self._epilogue:  # may schedule more work at ``now``
                hooks, self._epilogue = self._epilogue, []
                self._hooked_at = now
                for hook in hooks:
                    hook()
                continue
            next_time = heap[0][0] if heap else max(now, self._horizon)
            if next_time == now:
                return now
            if until is not None and next_time > until:
                self.now = until
                for hook in self._pause_hooks:
                    hook()
                return until
            self.now = next_time


class Store:
    """Unbounded FIFO queue connecting producer and consumer processes."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self._items: deque = deque()
        #: Waiting ``(event, view)`` pairs, oldest first.
        self._getters: deque = deque()

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            getter, view = self._getters.popleft()
            getter.succeed(item if view is None else view(item))
        else:
            self._items.append(item)

    def get(self, view: Optional[Callable[[Any], Any]] = None) -> Event:
        """An event that fires with the next available item.

        With ``view`` the event fires with ``view(item)`` instead, so
        consumers of one queue may read different facets of its items.
        """
        ev = self.sim.event()
        if self._items:
            item = self._items.popleft()
            ev.succeed(item if view is None else view(item))
        else:
            self._getters.append((ev, view))
        return ev

    def __len__(self) -> int:
        return len(self._items)
