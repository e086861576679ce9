"""Message-level network simulator gluing topology, links and NIC timing.

Messages are segmented into packet trains; each train is a small
callback object that pipelines across the route's links: every stage's
grant schedules the train's next step directly (see :meth:`Link.submit
<repro.network.link.Link.submit>`), one queue entry per train per stage
but the landings nobody awaits, so bandwidth sharing, FIFO queueing
and pipelining across hops all emerge from the event kernel.

Untraced, a message whose chain cannot drop a train and whose resources
are quiet at dispatch (no live run, no request staged this instant, no
train in a priority port's queue) runs *express* (:class:`_Run`): every
train's grant on every stage is computed in one pass and the message's
landing is its one queue entry.  The first request that reaches one of
its resources settles it to that instant, turning the trains not yet
through back into :class:`_Train` objects at their exact positions.

The NIC compression engines influence timing in two ways, mirroring the
hardware integration of Sec. VI-A:

* compressed payload shrinks on the wire (the sender NIC's
  ``WireMessage`` carries the codec's measured size), while the *packet
  count does not change* — the engine compresses payloads in place, so
  per-packet header bytes survive compression.  This reproduces the
  paper's observation that a 15x compression ratio does not yield a 15x
  communication-time reduction.
* the engine adds a small pipeline latency per train and caps streaming
  throughput at its burst rate (256 bits/cycle at 100 MHz = 3.2 GB/s,
  faster than 10 GbE, hence invisible by default but exposed for
  ablation).

Invariants: per-flow FIFO delivery — trains of one message traverse one
fixed route (``topology.route(src, dst, tos)``) in order, and the
receiver-side reorder buffer in :mod:`repro.transport.endpoint` restores
send order across messages; cut-through hand-off between stages starts
the next hop on head arrival, never before; same-instant contention on
any stage resolves by arbitration key, not callback order; with a
``tos_priority`` map, a train's priority class is a pure function of its
ToS byte (unmapped bytes get ``PRIORITY_DEFAULT``); all timing is
simulated time and the only randomness is the seeded loss model; an
express run's values equal the per-train kernel's bit for bit — it
makes ``Link._grant``'s float operations on the same operands in the
same per-resource order, nothing else touches its resources while it is
live, and settling replays a snapshot instead of subtracting.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.obs import CAT_MESSAGE, Tracer

from .events import Event, Simulation
from .link import Link
from .loss import DeliveryFailure, LossModel, RetransmitPolicy
from .packet import DEFAULT_MSS, HEADER_BYTES, TOS_DEFAULT, packet_count, train_runs
from .priority import PriorityLink, priority_class
from .topology import Route, Topology

if TYPE_CHECKING:
    from repro.transport.wire import WireMessage

#: Retransmission hook: ``(packets, wire_payload, raw_payload)`` of the
#: train being resent (payload bytes, headers excluded).
RetransmitHook = Callable[[int, int, int], None]

#: ``(resource, bytes, wire time, wire time awaited before hand-off,
#: hand-off delay, honors priority, can drop, hand-off continuation)``.
_Stage = Tuple[Link, int, float, float, float, bool, bool, Optional[Callable]]
#: ``(trains, shape, stage chain)``: consecutive trains of one shape.
_Segment = Tuple[int, Tuple[int, int, int], List[_Stage]]


@dataclass(frozen=True)
class NicTimingModel:
    """Timing of the NIC engine pair every node carries.

    Derived from the engine configuration by
    :meth:`repro.transport.ClusterConfig.nic_timing`.
    """

    #: Pipeline fill latency through the engine per packet train.
    engine_latency_s: float
    #: Engine streaming throughput on the *uncompressed* side, bytes/s.
    engine_throughput_bps: float


@dataclass
class MessageReceipt:
    """Bookkeeping returned alongside message delivery."""

    src: int
    dst: int
    nbytes: int
    wire_nbytes: int
    num_packets: int
    compressed: bool
    sent_at: float
    #: Delivery time; ``None`` until the message actually lands.
    delivered_at: Optional[float] = None

    @property
    def delivered(self) -> bool:
        """Whether the message has reached its destination yet."""
        return self.delivered_at is not None

    @property
    def duration(self) -> float:
        """Send-to-delivery time; raises while the message is in flight."""
        if self.delivered_at is None:
            raise RuntimeError(
                f"message {self.src}->{self.dst} not delivered yet"
            )
        return self.delivered_at - self.sent_at


class Network:
    """The cluster fabric: send messages, get delivery events."""

    #: Packets per simulated train; large messages are simulated at this
    #: granularity to bound event count while preserving pipelining.
    DEFAULT_TRAIN_PACKETS = 44  # ~64 KB of MSS payload

    def __init__(
        self,
        sim: Simulation,
        topology: Topology,
        train_packets: int = DEFAULT_TRAIN_PACKETS,
        engine: Optional[NicTimingModel] = None,
        loss: Optional[LossModel] = None,
        retransmit: RetransmitPolicy = RetransmitPolicy(),
        tracer: Optional[Tracer] = None,
        tos_priority: Optional[Dict[int, int]] = None,
    ) -> None:
        if train_packets <= 0:
            raise ValueError("train_packets must be positive")
        self.sim = sim
        self.tracer = tracer
        self.topology = topology
        self.train_packets = train_packets
        #: ToS byte -> priority class honored by priority-queued fabrics
        #: (``None`` disables classification: every train rides the
        #: default class, and plain FIFO links ignore priority anyway).
        self.tos_priority = dict(tos_priority) if tos_priority is not None else None
        self.retransmit = retransmit
        if loss is not None:
            for salt, link in enumerate(topology.all_links()):
                link.attach_loss(loss, salt)
        self.trains_retransmitted = 0
        self.packets_retransmitted = 0
        # Every node carries the same engine pair (``engine=None``: none).
        # Engines are FIFO resources: a busy engine queues later trains,
        # so a slow engine gates streaming throughput exactly like a
        # slow link would.  They carry the *uncompressed* byte stream.
        self._tx_engines: Dict[int, Link] = {}
        self._rx_engines: Dict[int, Link] = {}
        if engine is not None:
            for node in range(topology.num_nodes):
                for side, engines in ("tx", self._tx_engines), ("rx", self._rx_engines):
                    engines[node] = Link(
                        sim,
                        engine.engine_throughput_bps * 8,
                        engine.engine_latency_s,
                        name=f"n{node}-{side}-engine",
                    )
        if tracer is not None:
            for link in (*self._tx_engines.values(), *self._rx_engines.values()):
                link.attach_tracer(tracer, kind="engine")
            for link in topology.all_links():
                link.attach_tracer(tracer)
        self.total_wire_bytes = 0
        self.messages_sent = 0
        #: Live express runs, in start order.
        self._runs: Dict[_Run, None] = {}
        sim.at_pause(self._settle_runs)
        # Per-(src, dst) message sequence numbers feed link arbitration
        # keys.  Unlike the global ``messages_sent`` counter, these only
        # order messages within one flow — a deterministic quantity —
        # so keys never depend on the cross-flow callback execution
        # order the sanitizer deliberately perturbs.
        self._pair_seq: Dict[Tuple[int, int], int] = {}

    # -- public API -----------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        nbytes: int,
        tos: int = TOS_DEFAULT,
        payload: object = None,
    ) -> Event:
        """Send ``nbytes`` of raw application data from ``src`` to ``dst``.

        Returns an event firing at delivery with value
        ``(payload, receipt)``.  The bytes bypass the engines whatever
        ``tos`` says: compression is decided once, by the sender NIC
        that builds a :class:`~repro.transport.wire.WireMessage` (sent
        with :meth:`send_wire`).
        """
        if nbytes < 0:
            raise ValueError("nbytes cannot be negative")
        route = self.topology.route(src, dst, tos=tos)
        return self.send_route(route, src, dst, nbytes, nbytes, tos, payload)

    def send_wire(
        self,
        msg: "WireMessage",
        on_retransmit: Optional[RetransmitHook] = None,
    ) -> Event:
        """Send a built :class:`~repro.transport.wire.WireMessage`.

        The message's wire sizes and ``compressed`` flag are the sender
        NIC's engine dispatch, the one compression decision: a
        compressed message crosses both endpoints' engine stages.
        Returns an event firing at delivery with value
        ``(msg, receipt)``.  ``on_retransmit`` fires once per resent
        train with its packet and payload counts — the hook that lets
        functional NIC counters see every wire traversal.
        """
        return self._dispatch(
            self.topology.route(msg.src, msg.dst, tos=msg.tos),
            msg.src,
            msg.dst,
            msg.nbytes,
            msg.wire_payload_nbytes,
            msg.tos,
            msg.src if msg.compressed else None,
            msg.dst if msg.compressed else None,
            msg,
            on_retransmit,
        )

    def send_route(
        self,
        route: Route,
        src: int,
        dst: int,
        nbytes: int,
        wire_payload: int,
        tos: int = TOS_DEFAULT,
        payload: object = None,
        tx_engine_node: Optional[int] = None,
        rx_engine_node: Optional[int] = None,
        arb_base: Optional[Tuple[int, int, int]] = None,
    ) -> Event:
        """Send over an explicit partial route (reduction-tree segments).

        The in-network aggregation runtime moves payloads between hosts
        and reduction points along route *segments* rather than full
        host-to-host routes, with engine stages only where hardware sits:
        ``tx_engine_node``/``rx_engine_node`` name the endpoint whose
        compression engines bracket this segment (``None`` for
        switch-to-switch segments; nodes without engines are skipped).
        ``arb_base`` must be a deterministic identity for the segment —
        the reduction plan assigns one per edge — so same-instant link
        arbitration never depends on callback order.  Returns an event
        firing at segment delivery with value ``(payload, receipt)``.
        """
        return self._dispatch(
            route,
            src,
            dst,
            nbytes,
            wire_payload,
            tos,
            tx_engine_node,
            rx_engine_node,
            payload,
            None,
            arb_base,
        )

    # -- internals --------------------------------------------------------------

    def _settle_runs(self) -> None:
        """``run(until=...)`` stopped: turn live express runs into trains."""
        for run in list(self._runs):
            run.dissolve(self.sim.now, True)

    def _dispatch(
        self,
        route: Route,
        src: int,
        dst: int,
        nbytes: int,
        wire_payload: int,
        tos: int,
        tx_engine_node: Optional[int],
        rx_engine_node: Optional[int],
        payload: object,
        on_retransmit: Optional[RetransmitHook] = None,
        arb_base: Optional[Tuple[int, int, int]] = None,
    ) -> Event:
        """The one send path: trace, segment into trains, start them.

        Untraced, the trains start as one express run if the chain is
        quiet and lossless (:meth:`_Run.start`), else each on its own.
        The engine nodes name the endpoints whose compression engines
        bracket ``route`` (``None``, or a node without engines: no
        engine stage on that side).
        """
        tx_engine = self._tx_engines.get(tx_engine_node)
        rx_engine = self._rx_engines.get(rx_engine_node)
        cls = priority_class(  # the trains' class on priority ports
            None if self.tos_priority is None else self.tos_priority.get(tos)
        )
        compress = tx_engine is not None or rx_engine is not None
        num_packets = packet_count(nbytes)
        wire_total = num_packets * HEADER_BYTES + wire_payload

        receipt = MessageReceipt(
            src=src,
            dst=dst,
            nbytes=nbytes,
            wire_nbytes=wire_total,
            num_packets=num_packets,
            compressed=compress,
            sent_at=self.sim.now,
        )
        self.total_wire_bytes += wire_total
        self.messages_sent += 1
        tracer = self.tracer
        msg_id = self.messages_sent
        if tracer is not None:
            tracer.instant(
                "msg.send",
                cat=CAT_MESSAGE,
                ts=self.sim.now,
                node=src,
                msg=msg_id,
                dst=dst,
                nbytes=nbytes,
                wire_nbytes=wire_total,
                tos=tos,
                packets=num_packets,
                compressed=compress,
            )
            tracer.metrics.counter("messages_sent").inc()
            tracer.metrics.counter("wire_bytes", tos=f"{tos:#04x}").inc(
                wire_total
            )

        if arb_base is None:
            pair = (src, dst)
            pair_seq = self._pair_seq.get(pair, 0)
            self._pair_seq[pair] = pair_seq + 1
            arb_base = (src, dst, pair_seq)

        # A message's trains come in a few runs of one shape (the last
        # train absorbs the rounding); each run's stage chain is built
        # once, and the last train's apart (its landing is awaited).
        runs = train_runs(num_packets, wire_payload, nbytes, self.train_packets)
        segments: List[_Segment] = [
            (count, shape, self._stage_chain(
                route, shape, tx_engine, rx_engine, index == len(runs) - 1
            ))
            for index, (count, shape) in enumerate(runs)
        ]
        message = _Message(self.sim)
        message.net, message.receipt, message.payload = self, receipt, payload
        message.msg_id, message.on_retransmit = msg_id, on_retransmit
        message.left = sum(count for count, _ in runs)
        sim = self.sim
        if tracer is None and sim.first_round():
            run = _Run(self, message, segments, arb_base, cls)
            if run.start():
                return message
        index = 0
        for count, shape, chain in segments:
            for _ in range(count):
                train = _Train(message, chain, shape, (*arb_base, index), cls)
                sim.schedule(sim.now, _Train.advance, train)
                index += 1
        return message

    @staticmethod
    def _stage_chain(
        route: Route,
        shape: Tuple[int, int, int],
        tx_engine: Optional[Link],
        rx_engine: Optional[Link],
        last_train: bool,
    ) -> List[_Stage]:
        """The stages a train of ``shape`` crosses, engines included.

        Stages hand off with virtual cut-through: the next stage starts
        when the train's head packet arrives (plus the hop's forwarding
        delay), not when the whole train has been stored — so results do
        not depend on the simulation's train granularity.  The final
        stage completes store-and-forward (delivery means the last byte
        arrived).  Stages carry their wire times, computed once per shape.

        Where no stage can drop a train, a message's trains reach the
        final stage in index order at increasing instants and are served
        FIFO, so the last lands last: only its landing is queued.  Where
        one can, every landing is (a resend starts from it).
        """
        _, wire_bytes, raw_bytes = shape
        head_wire = min(wire_bytes, HEADER_BYTES + DEFAULT_MSS)
        head_raw = min(raw_bytes, HEADER_BYTES + DEFAULT_MSS)
        stages: List[Tuple[Link, int, int, float]] = []
        if tx_engine is not None:
            stages.append((tx_engine, raw_bytes, head_raw, 0.0))
        last_hop = len(route.links) - 1
        for hop, link in enumerate(route.links):
            delay = route.forwarding_delay_s if hop < last_hop else 0.0
            stages.append((link, wire_bytes, head_wire, delay))
        if rx_engine is not None:
            stages.append((rx_engine, raw_bytes, head_raw, 0.0))
        resource, nbytes, _, delay = stages[-1]  # awaits the whole train
        stages[-1] = (resource, nbytes, nbytes, delay)
        chain: List[_Stage] = [
            (resource, nbytes, resource.serialization_time(nbytes),
             resource.serialization_time(head), delay, resource.honors_priority,
             bool(resource.drop_probability), _Train.advance)
            for resource, nbytes, head, delay in stages
        ]
        if not last_train and not any(stage[6] for stage in chain):
            chain[-1] = (*chain[-1][:-1], None)  # a landing nobody awaits
        return chain


class _Message(Event):
    """A message's delivery event; its trains count down to it."""

    __slots__ = ("net", "receipt", "payload", "msg_id", "on_retransmit", "left")
    net: Network
    receipt: MessageReceipt
    payload: object
    msg_id: int
    on_retransmit: Optional[RetransmitHook]
    left: int  # trains still in flight

    def train_landed(self) -> None:
        """Count a train in; the last one stamps the receipt and fires."""
        self.left -= 1
        if self.left:
            return
        now, tracer, receipt = self.sim.now, self.net.tracer, self.receipt
        receipt.delivered_at = now
        if tracer is not None:
            tracer.instant(
                "msg.deliver",
                cat=CAT_MESSAGE,
                ts=now,
                node=receipt.dst,
                msg=self.msg_id,
                src=receipt.src,
            )
            tracer.span(
                "msg.flight",
                cat=CAT_MESSAGE,
                ts=receipt.sent_at,
                dur=now - receipt.sent_at,
                node=receipt.src,
                msg=self.msg_id,
                dst=receipt.dst,
                nbytes=receipt.nbytes,
                wire_nbytes=receipt.wire_nbytes,
            )
            tracer.metrics.counter("messages_delivered").inc()
        self.succeed((self.payload, receipt))


class _Train:
    """One packet train walking its message's stage chain.

    Every stage's grant schedules :meth:`advance` for the hand-off
    instant (:meth:`Link.submit <repro.network.link.Link.submit>`),
    but a final landing nobody awaits (:meth:`Network._stage_chain`).
    ``keys`` orders same-instant grants on every stage, so they never
    depend on callback order: ``key`` — ``(src, dst, flow seq, train
    index)`` — and ``(cls, key)`` on priority ports.
    """

    __slots__ = ("message", "chain", "shape", "keys", "stage", "attempts", "lost")

    def __init__(
        self,
        message: _Message,
        chain: List[_Stage],
        shape: Tuple[int, int, int],
        key: Tuple[int, ...],
        cls: int,
    ) -> None:
        self.message, self.chain, self.shape = message, chain, shape
        self.keys = (key, (cls, key))
        #: Next stage; attempt under way; whether the requested stage drops it.
        self.stage, self.attempts, self.lost = 0, 1, False

    def advance(self) -> None:
        """Hand-off: resend a lost train, request the next stage, or land."""
        message = self.message
        if self.lost:
            self._resend(message.net)
        if self.stage == len(self.chain):
            message.train_landed()
            return
        stage = self.chain[self.stage]
        resource, nbytes, wire_s, head_s, delay, prioritized, drops, fn = stage
        self.stage += 1
        if drops and resource.should_drop(self.shape[0]):
            # The wire time is spent; the loss is discovered at the
            # sender one RTO after the expected delivery.
            head_s, delay, self.lost = wire_s, message.net.retransmit.rto_s, True
        elif fn is None:  # a landing nobody awaits: the train is in
            message.left -= 1
        resource._stage(
            self.keys[prioritized], nbytes, wire_s, head_s, delay, fn, self
        )

    def _resend(self, net: Network) -> None:
        """Book the retransmission; the train restarts at its first stage."""
        (packets, wire, raw), attempts = self.shape, self.attempts
        src, dst = self.message.receipt.src, self.message.receipt.dst
        net.trains_retransmitted += 1
        net.packets_retransmitted += packets
        if self.message.on_retransmit is not None:
            headers = packets * HEADER_BYTES
            self.message.on_retransmit(packets, wire - headers, raw - headers)
        if net.tracer is not None:
            net.tracer.instant(
                "train.retransmit",
                cat=CAT_MESSAGE,
                ts=net.sim.now,
                node=src,
                dst=dst,
                attempt=attempts,
            )
            net.tracer.metrics.counter("trains_retransmitted").inc()
        limit = net.retransmit.max_attempts
        if limit is not None and attempts >= limit:
            raise DeliveryFailure(
                f"train between nodes {src}->{dst} lost {attempts} times"
            )
        self.stage, self.attempts, self.lost = 0, attempts + 1, False


def _peak_depth(
    arrivals: List[float], starts: List[float], admitted: int, depth: int
) -> int:
    """A priority port's ``max_queue_depth`` after ``admitted`` arrivals.

    The port measures its queue when it admits a round's arrivals,
    before it serves: train ``i`` then finds every earlier train that
    has not started before it arrived (``start >= arrival``).
    """
    first = 0
    for index in range(admitted):
        arrival = arrivals[index]
        while starts[first] < arrival:  # stops at ``index`` at the latest
            first += 1
        if index - first >= depth:
            depth = index - first + 1
    return depth


class _Run:
    """An uncontended message's trains, reserved in one pass: an express run.

    :meth:`start` walks every stage of the chain with ``Link._grant``'s
    own arithmetic, in its order — ``start = max(free_at, arrival)``,
    ``free_at = start + wire time``, hand-off at ``start + head + latency
    + delay`` — and writes each resource's final ``free_at``,
    ``busy_time``, ``bytes_carried`` (and a port's ``max_queue_depth``)
    at once.  The one queue entry is the message's landing, queued now
    (the per-train kernel queued it at the last grant, so landings of
    two messages at one float may fire in the other order).  Nothing
    else may touch the run's resources while it is live, so the values
    are the per-train kernel's bit for bit.

    When a request reaches a resource the run holds, :meth:`contact`
    either lets go of it (every grant there has happened) or
    :meth:`dissolve` settles the run to that instant: each resource is
    reset to its snapshot and replays the grants the per-train kernel
    would have made by then, in order, and every other train becomes a
    :class:`_Train` at its position — scheduled at its next request, or
    waiting in a priority port's queue with the port's wake-up.
    """

    __slots__ = (
        "net", "message", "segments", "arb_base", "cls", "resources",
        "arrivals", "grants", "snapshots", "stale",
    )

    def __init__(
        self,
        net: Network,
        message: _Message,
        segments: List[_Segment],
        arb_base: Tuple[int, int, int],
        cls: int,
    ) -> None:
        self.net, self.message, self.segments = net, message, segments
        self.arb_base, self.cls = arb_base, cls
        self.resources = [stage[0] for stage in segments[-1][2]]
        #: Per stage: every train's request instant, and the instant
        #: the kernel grants it (the request on a link, the start on a
        #: priority port, which grants at its wake-up).
        self.arrivals: List[List[float]] = []
        self.grants: List[List[float]] = []
        #: Per stage: ``(free_at, busy_time, bytes_carried,
        #: max_queue_depth, admitted)`` before the run.
        self.snapshots: List[Tuple] = []
        #: Whether the landing entry lost its train to a dissolution.
        self.stale = False

    def start(self) -> bool:
        """Reserve every train if the chain is quiet and lossless.

        Quiet: no live run, no request staged this instant, no train
        waiting in a port's queue (a busy ``free_at`` is fine).  A plan
        with a zero-lag hand-off — one at its grant's own instant, whose
        next request joins a later arbitration round — is given up.
        Returns whether the run started; if not, nothing changed.
        """
        resources = self.resources
        if len(set(resources)) < len(resources):
            return False
        for stage in self.segments[-1][2]:
            resource, holder = stage[0], stage[0]._run
            if stage[6] or resource.tracer is not None or resource._arbitrating:
                return False
            if resource._queue or (holder is not None and not holder.release(resource)):
                return False
        sim, trains = self.net.sim, self.message.left
        arrivals, finals = [sim.now] * trains, []
        for index, resource in enumerate(resources):
            self.arrivals.append(arrivals)
            starts, free_at, busy = self._walk(
                index, trains, resource._free_at, resource.busy_time
            )
            port = isinstance(resource, PriorityLink)  # grants at the start
            self.grants.append(starts if port else arrivals)
            finals.append((free_at, busy))
            arrivals = self._handoffs(index, starts)
        landing = arrivals[-1]  # every hand-off comes no later
        for _, _, chain in self.segments:
            for resource, _, _, head_s, delay, *_ in chain:
                lag = max(head_s, resource.latency_s, delay)
                if not landing + 0.5 * lag > landing:  # not > ulp(landing)
                    return False
        for index, resource in enumerate(resources):
            queue_state = (0, 0)
            if isinstance(resource, PriorityLink):
                queue_state = (resource.max_queue_depth, resource._admitted)
                resource.max_queue_depth = _peak_depth(
                    self.arrivals[index], self.grants[index], trains,
                    resource.max_queue_depth,
                )
                resource._admitted += trains
            self.snapshots.append(
                (resource._free_at, resource.busy_time, resource.bytes_carried,
                 *queue_state)
            )
            resource._free_at, resource.busy_time = finals[index]
            resource.bytes_carried += self._bytes(index, trains)
            resource._run = self
            sim.extend_horizon(resource._free_at + resource.latency_s)
        self.message.left = 1  # the landing
        self.net._runs[self] = None
        sim.schedule(landing, _Run.land, self)
        return True

    def _walk(
        self, index: int, count: int, free_at: float, busy: float
    ) -> Tuple[List[float], float, float]:
        """Stage ``index``'s first ``count`` grants, as ``Link._grant``
        makes them: their starts, then ``free_at`` and ``busy_time``."""
        arrivals, starts, done = self.arrivals[index], [], 0
        push = starts.append
        for trains, _, chain in self.segments:
            take = min(trains, count - done)
            if take <= 0:
                break
            serialization = chain[index][2]
            for arrival in arrivals[done : done + take]:
                start = free_at if free_at > arrival else arrival
                free_at = start + serialization
                busy += serialization
                push(start)
            done += take
        return starts, free_at, busy

    def _handoffs(self, index: int, starts: List[float]) -> List[float]:
        """Every train's hand-off instant from stage ``index``."""
        latency, handoffs, done = self.resources[index].latency_s, [], 0
        for trains, _, chain in self.segments:
            head_s, delay = chain[index][3], chain[index][4]
            handoffs += [
                start + head_s + latency + delay
                for start in starts[done : done + trains]
            ]
            done += trains
        return handoffs

    def _bytes(self, index: int, count: int) -> int:
        """Bytes the first ``count`` trains carry over stage ``index``."""
        total = done = 0
        for trains, _, chain in self.segments:
            take = max(0, min(trains, count - done))
            total += take * chain[index][1]
            done += trains
        return total

    def release(self, resource: Link) -> bool:
        """Let go of ``resource`` if all its grants have happened by now."""
        sim = self.net.sim
        last = self.grants[self.resources.index(resource)][-1]
        if last < sim.now or (last == sim.now and not sim.first_round()):
            resource._run = None
            return True
        return False

    def contact(self, resource: Link) -> None:
        """A request is about to stage on ``resource``: settle to now."""
        if not self.release(resource):
            sim = self.net.sim
            self.dissolve(sim.now, not sim.first_round())

    def dissolve(self, now: float, late: bool) -> None:
        """Turn the run back into trains, as the kernel has them at ``now``.

        A request at ``now`` itself counts as granted only ``late``,
        once the instant's first arbitration round has run; otherwise
        it rejoins this round's arbitration.
        """
        sim, message = self.net.sim, self.message
        cut = bisect_right if late else bisect_left
        arrived = len(self.arrivals[0])  # trains granted upstream
        last_train, last_stage = arrived - 1, len(self.resources) - 1
        left = 1
        del self.net._runs[self]
        for index, resource in enumerate(self.resources):
            arrivals = self.arrivals[index]
            port = resource if isinstance(resource, PriorityLink) else None
            granted = cut(self.grants[index], now)
            admitted = granted if port is None else cut(arrivals, now)
            free_at, busy, carried, depth, seq = self.snapshots[index]
            if resource._run is self:  # not released: replay the prefix
                resource._run = None
                _, resource._free_at, resource.busy_time = self._walk(
                    index, granted, free_at, busy
                )
                resource.bytes_carried = carried + self._bytes(index, granted)
                if port is not None:
                    port.max_queue_depth = _peak_depth(
                        arrivals, self.grants[index], admitted, depth
                    )
                    port._admitted = seq + admitted
            for train_index in range(granted, arrived):  # the frontier is here
                train, stage = self._train(train_index, index)
                queued = train_index < admitted
                if train_index == last_train:
                    self.stale = True  # it lands by itself
                elif index < last_stage or not queued:
                    left += 1  # it has yet to request its final stage
                if port is None or not queued:
                    sim.schedule(arrivals[train_index], _Train.advance, train)
                    continue
                train.stage += 1
                _, nbytes, wire_s, head_s, delay, _, _, fn = stage
                seq += 1
                request = (
                    train.keys[1], nbytes, wire_s, head_s, delay, fn, train,
                    arrivals[train_index],
                )
                heapq.heappush(port._queue, (self.cls, seq, request))
                if not port._waking:
                    port._waking = True
                    sim.call_at(port._free_at, port._finish_service)
            arrived = granted
        message.left = left

    def _train(self, index: int, stage: int) -> Tuple["_Train", _Stage]:
        """Train ``index`` of the message, about to request ``stage``."""
        done = 0
        for trains, shape, chain in self.segments:
            if index < done + trains:
                break
            done += trains
        train = _Train(self.message, chain, shape, (*self.arb_base, index), self.cls)
        train.stage = stage
        return train, chain[stage]

    def land(self) -> None:
        """The last train landed: release what is held, deliver."""
        if self.stale:  # the last train is a :class:`_Train` now
            return
        self.net._runs.pop(self, None)
        for resource in self.resources:
            if resource._run is self:
                resource._run = None
        self.message.train_landed()
