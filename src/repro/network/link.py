"""Point-to-point link model with bandwidth, propagation latency and FIFO
queueing.

A link is unidirectional; full-duplex connections are a pair of links.
Serialization time is ``bytes * 8 / bandwidth``; contention is modeled by
FIFO reservation (a request issued while the link is busy queues behind
the in-flight traffic).  The aggregator bottleneck the paper measures is
precisely the FIFO queue on the switch-to-aggregator link.

Requests issued at the *same simulated instant* are a special case: with
naive immediate reservation their FIFO order would be whatever order the
kernel happened to run the requesting callbacks in — an accident of
event-queue insertion, not a modeling decision.  So every request is
*staged*: requests are collected until the instant drains (see
:meth:`Simulation.at_instant_end`) and granted in arbitration-``key``
order, the way a hardware arbiter resolves simultaneous port requests by
fixed priority (requests without a key sort first, in call order).
This makes contention outcomes a pure function of the workload, invariant
under equal-timestamp event reordering.

Invariants: strict FIFO service order (arrival order between instants,
key order within an instant) — the ``priority`` argument is accepted for
interface compatibility and *ignored*, keeping single-tier fabrics
bit-exact (:class:`~repro.network.priority.PriorityLink` honors it);
cut-through hand-off exposes head arrival without ever letting a train
overtake itself; all timing derives from simulated time
(``Simulation.now``), never the host clock; a resource held by an
express run of a message group (:mod:`repro.network.simulator`) takes a
request into the run's plan, or is settled before the request stages,
so every request meets the state the per-train kernel would have left.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import (
    TYPE_CHECKING, Any, Callable, Deque, Iterable, List, Optional, Tuple,
)

import numpy as np

from repro.obs import Tracer

from .events import Event, Simulation
from .loss import LossModel

if TYPE_CHECKING:
    from .simulator import _Run

_ARB_KEY = itemgetter(0)


class Link:
    """One direction of a network cable (or a switch port's egress)."""

    #: Whether arbitration sorts by ``(priority class, key)``, not ``key``.
    honors_priority = False
    #: Admitted requests waiting for the resource: a plain link reserves
    #: at once, so none (:class:`~repro.network.priority.PriorityLink`
    #: queues).
    _queue: Any = ()

    def __init__(
        self,
        sim: Simulation,
        bandwidth_bps: float,
        latency_s: float,
        name: str = "",
    ) -> None:
        # Negated, so NaN is rejected too: as a time it breaks the heap order.
        if not bandwidth_bps > 0:
            raise ValueError("bandwidth must be positive")
        if not latency_s >= 0:
            raise ValueError("latency cannot be negative")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self.name = name
        self._free_at = 0.0
        #: Total bytes ever accepted, for utilization accounting.
        self.bytes_carried = 0
        #: Total time the link spent serializing, for utilization accounting.
        self.busy_time = 0.0
        #: Bernoulli train loss on a seeded stream (:meth:`attach_loss`).
        self.drop_probability = 0.0
        self._rng: Optional[np.random.Generator] = None
        #: Dropped trains, and the packets inside them.
        self.trains_dropped = 0
        self.packets_dropped = 0
        #: Role of this FIFO resource in trace output ("link" or "engine").
        self.kind = "link"
        #: Nullable tracer; ``None`` keeps the hot path allocation-free.
        self.tracer: Optional[Tracer] = None
        #: ``(staged, finish)`` of recent grants, for traced queue depth.
        self._inflight: Optional[Deque[Tuple[float, float]]] = None
        #: Same-instant requests awaiting arbitration: ``(sort key,
        #: nbytes, serialization_s, head_s, delay, fn, arg, staged at)``.
        self._pending: List[Tuple] = []
        self._arbitrating = False
        #: The express run holding this resource, if any (see
        #: :mod:`repro.network.simulator`): settled before a request
        #: stages here.
        self._run: Optional["_Run"] = None

    def attach_tracer(self, tracer: Tracer, kind: Optional[str] = None) -> None:
        """Enable occupancy tracing on this resource (idempotent)."""
        self.tracer = tracer
        if kind is not None:
            self.kind = kind
        if self._inflight is None:
            self._inflight = deque()

    def _trace_transfer(
        self, staged: float, start: float, finish: float, nbytes: int
    ) -> None:
        """Record one reserved transfer: occupancy span + queue metrics.

        ``staged`` is the instant the train asked for the resource: it
        waited from then to ``start``, behind the trains ahead of it
        then (on the wire or queued, and granted before it).  A train
        that staged later and overtook it on a priority port is not
        counted.
        """
        queue = self._inflight
        assert queue is not None and self.tracer is not None
        # Trains that left before the oldest waiting one arrived count
        # for no one any more (finish times only grow).
        oldest = min([staged, *(entry[2][7] for entry in self._queue)])
        while queue and queue[0][1] <= oldest:
            queue.popleft()
        depth = sum(1 for ahead, done in queue if ahead <= staged < done)
        queue.append((staged, finish))
        self.tracer.span(
            f"{self.kind}.xfer",
            cat=self.kind,
            ts=start,
            dur=finish - start,
            resource=self.name,
            nbytes=nbytes,
            wait_s=start - staged,
            queue_depth=depth,
        )
        metrics = self.tracer.metrics
        metrics.counter(f"{self.kind}_bytes", resource=self.name).inc(nbytes)
        metrics.gauge(f"{self.kind}_queue_depth", resource=self.name).set(depth)
        metrics.histogram(f"{self.kind}_queue_wait_s", resource=self.name).observe(
            start - staged
        )

    def attach_loss(self, model: LossModel, salt: int = 0) -> None:
        """Enable Bernoulli train loss on this link (seeded ``seed + salt``)."""
        self.drop_probability = model.drop_probability
        self._rng = np.random.default_rng(model.seed + salt)

    def should_drop(self, packets: int = 1) -> bool:
        """Decide (and record) whether the next train is lost here.

        ``packets`` is the train's packet count, recorded so loss
        statistics are available at the same granularity the WireMessage
        pipeline uses everywhere else.
        """
        if not self.drop_probability:
            return False
        dropped = bool(self._rng.random() < self.drop_probability)
        if dropped:
            self.trains_dropped += 1
            self.packets_dropped += packets
        return dropped

    def serialization_time(self, nbytes: int) -> float:
        """Time to clock ``nbytes`` onto the wire at line rate."""
        return nbytes * 8.0 / self.bandwidth_bps

    def _arb_key(self, key: Optional[Tuple], priority: Optional[int]) -> Tuple:
        """Same-instant sort key; a plain link is a cable, not a scheduler."""
        return key if key is not None else ()

    def _take_pending(self) -> List[Tuple]:
        """This instant's requests in arbitration order; re-arms staging."""
        self._arbitrating = False
        pending, self._pending = self._pending, []
        pending.sort(key=_ARB_KEY)
        return pending

    def _grant_pending(self) -> None:
        """Grant every reservation requested this instant, in key order."""
        self._grant(self._take_pending())

    def _grant(self, requests: Iterable[Tuple]) -> None:
        """Reserve FIFO slots for ``requests``; schedule each ``fn(arg)``.

        A landing nobody awaits (``fn`` is ``None``) costs no queue entry;
        the run still ends no earlier than it (the run horizon).
        """
        sim, tracer, latency = self.sim, self.tracer, self.latency_s
        now, free_at = sim.now, self._free_at
        for _, nbytes, serialization, head_s, delay, fn, arg, staged in requests:
            start = free_at if free_at > now else now  # max(), sans the call
            free_at = start + serialization
            self.bytes_carried += nbytes
            self.busy_time += serialization
            if tracer is not None:
                self._trace_transfer(staged, start, free_at, nbytes)
            if fn is not None:
                sim.schedule(start + head_s + latency + delay, fn, arg)
        self._free_at = free_at
        sim.extend_horizon(free_at + latency)

    def _stage(
        self, key: Tuple, nbytes: int, serialization_s: float, head_s: float,
        delay: float, fn: Optional[Callable[[Any], Any]], arg: Any,
    ) -> None:
        """Stage a checked request; it is granted when the instant drains.

        An express run holding this resource first admits the request
        (it is planned with the run from now on) or is settled to this
        instant, so the request meets the state the per-train kernel
        would have left.
        """
        if self._run is not None and self._run.contact(self, arg):
            return
        sim = self.sim
        self._pending.append(
            (key, nbytes, serialization_s, head_s, delay, fn, arg, sim.now)
        )
        if not self._arbitrating:
            self._arbitrating = True
            sim.at_instant_end(self._grant_pending)

    def submit(
        self,
        nbytes: int,
        head_nbytes: int,
        delay: float,
        key: Optional[Tuple],
        priority: Optional[int],
        fn: Callable[[Any], Any],
        arg: Any,
    ) -> None:
        """Queue a packet train; ``fn(arg)`` runs at its hand-off instant.

        That is ``delay`` after the train's first ``head_nbytes`` reached
        the far end (a pipelined next hop may start), or with
        ``head_nbytes=nbytes`` its delivery (the last bit left
        ``latency_s`` earlier).  Same-instant requests are granted in
        ``key`` order (module docstring); only
        :class:`~repro.network.priority.PriorityLink` honors ``priority``.
        Packet trains stage their precomputed wire times directly.
        """
        if nbytes < 0:
            raise ValueError("cannot transmit a negative number of bytes")
        if not delay >= 0:  # also rejects NaN, which would corrupt the heap
            raise ValueError(f"negative delay: {delay}")
        head_nbytes = min(max(head_nbytes, 0), nbytes)
        wire_time = self.serialization_time
        self._stage(
            self._arb_key(key, priority), nbytes, wire_time(nbytes),
            wire_time(head_nbytes), delay, fn, arg,
        )

    def request(
        self,
        nbytes: int,
        head_nbytes: int,
        delay: float = 0.0,
        key: Optional[Tuple] = None,
        priority: Optional[int] = None,
    ) -> Event:
        """:meth:`submit` with an event that fires at the hand-off instant."""
        event = Event(self.sim)
        self.submit(nbytes, head_nbytes, delay, key, priority, event.succeed, None)
        return event

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the link spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        gbps = self.bandwidth_bps / 1e9
        return f"Link({self.name or 'anon'}, {gbps:g} Gb/s, {self.latency_s*1e6:g} us)"
