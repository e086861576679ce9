"""Message-level network simulator gluing topology, links and NIC timing.

Messages are segmented into packet trains; each train is a small
callback object that pipelines across the route's links: every stage's
grant schedules the train's next step directly (see :meth:`Link.submit
<repro.network.link.Link.submit>`), one queue entry per train per stage
but the landings nobody awaits, so bandwidth sharing, FIFO queueing
and pipelining across hops all emerge from the event kernel.

Untraced, the lossless messages of more than one train sent in one
arbitration round are planned before its first grant: those whose
chains share a resource are one *group*, which runs *express*
(:class:`_Run`) if its resources are quiet — every train's grant on
every stage computed in one pass, the landings its only queue entries —
until the first request that reaches one of its resources turns the
trains not yet through back into :class:`_Train` objects.

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
express run's values equal the per-train kernel's bit for bit — on
each resource it makes ``Link._grant``'s float operations on the same
operands in the kernel's arbitration order, nothing else touches its
resources while it is live, and settling replays a snapshot instead of
subtracting; a plan never depends on the round's dispatch order.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

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
#: A message's rank in an express group: its trains' key, less the
#: index, then the message number, which orders tied ``arb_base``s in
#: the per-train kernel (a group with a tie is refused a plan).
_member_key = attrgetter("arb_base", "msg_id")


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
        #: This round's express candidates, planned before its first
        #: arbitration (:meth:`_plan_round`).
        self._round: List[_Message] = []
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

        Untraced, a lossless message of more than one train sent in the
        instant's first round waits for :meth:`_plan_round`; any other
        starts its trains each on its own.
        The engine nodes name the endpoints whose compression engines
        bracket ``route`` (``None``, or a node without engines: no
        engine stage on that side).
        """
        cls = priority_class(  # the trains' class on priority ports
            None if self.tos_priority is None else self.tos_priority.get(tos)
        )
        compress = (
            tx_engine_node in self._tx_engines or rx_engine_node in self._rx_engines
        )
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

        segments = self.segments(
            route, nbytes, wire_payload, tx_engine_node, rx_engine_node
        )
        message = _Message(self.sim)
        message.net, message.receipt, message.payload = self, receipt, payload
        message.msg_id, message.on_retransmit = msg_id, on_retransmit
        message.segments, message.arb_base, message.cls = segments, arb_base, cls
        message.left = sum(count for count, _, _ in segments)
        lossless = not any(stage[6] for stage in segments[-1][2])
        if tracer is None and lossless and message.left > 1 and self.sim.first_round():
            if not self._round:
                self.sim.before_arbitration(self._plan_round)
            self._round.append(message)
        else:
            self._start_trains(message)
        return message

    def segments(
        self,
        route: Route,
        nbytes: int,
        wire_payload: int,
        tx_engine_node: Optional[int],
        rx_engine_node: Optional[int],
    ) -> List[_Segment]:
        """A message's trains on ``route`` — both exchange evaluators read
        them — as runs of one shape, each with its stage chain; the last
        train, whose landing is awaited, is a run of its own."""
        tx_engine = self._tx_engines.get(tx_engine_node)
        rx_engine = self._rx_engines.get(rx_engine_node)
        runs = train_runs(
            packet_count(nbytes), wire_payload, nbytes, self.train_packets
        )
        return [
            (count, shape, self._stage_chain(
                route, shape, tx_engine, rx_engine, index == len(runs) - 1
            ))
            for index, (count, shape) in enumerate(runs)
        ]

    def _start_trains(self, message: _Message) -> None:
        """Start every train of ``message`` at its first stage, now."""
        sim, index = self.sim, 0
        for count, shape, chain in message.segments:
            for _ in range(count):
                train = _Train(message, chain, shape, index)
                sim.schedule(sim.now, _Train.advance, train)
                index += 1

    def _plan_round(self) -> None:
        """Plan the round's candidates in key order, each set whose
        chains share a resource as one group (:class:`_Run`); a refused
        group starts per train, still in this round."""
        groups: List[Tuple[List[_Message], Set[Link]]] = []
        for message in sorted(self._round, key=_member_key):
            members = [message]
            resources = {stage[0] for stage in message.segments[-1][2]}
            for group in [g for g in groups if not resources.isdisjoint(g[1])]:
                groups.remove(group)
                members += group[0]
                resources |= group[1]
            groups.append((sorted(members, key=_member_key), resources))
        self._round = []
        for members, _ in sorted(groups, key=lambda g: _member_key(g[0][0])):
            if not _Run(self, members).start():
                for message in members:
                    self._start_trains(message)

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

    __slots__ = (
        "net", "receipt", "payload", "msg_id", "on_retransmit", "segments",
        "arb_base", "cls", "left",
    )
    net: Network
    receipt: MessageReceipt
    payload: object
    msg_id: int
    on_retransmit: Optional[RetransmitHook]
    segments: List[_Segment]
    arb_base: Tuple[int, int, int]  # the trains' keys' first fields
    cls: int  # the trains' class on priority ports
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
    index, message number)`` — and ``(cls, key)`` on priority ports.
    The message number orders only trains whose other fields tie (two
    sends given one ``arb_base``) in dispatch order, whichever staged first.
    """

    __slots__ = ("message", "chain", "shape", "keys", "stage", "attempts", "lost")

    def __init__(
        self,
        message: _Message,
        chain: List[_Stage],
        shape: Tuple[int, int, int],
        index: int,
    ) -> None:
        self.message, self.chain, self.shape = message, chain, shape
        key = (*message.arb_base, index, message.msg_id)
        self.keys = (key, (message.cls, key))
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


def _topological(chains: List[List[Link]]) -> Optional[List[Link]]:
    """The resources of ``chains`` in an order every chain follows, or
    ``None`` if their union has a cycle (a chain crossing a resource
    twice makes one)."""
    if len(chains) == 1:
        return chains[0] if len(set(chains[0])) == len(chains[0]) else None
    edges = dict.fromkeys(
        (a, b) for chain in chains for a, b in zip(chain, chain[1:])
    )
    indegree = dict.fromkeys((r for chain in chains for r in chain), 0)
    for _, b in edges:
        indegree[b] += 1
    order = [resource for resource, degree in indegree.items() if not degree]
    for resource in order:
        for a, b in edges:
            if a is resource:
                indegree[b] -= 1
                if not indegree[b]:
                    order.append(b)
    return order if len(order) == len(indegree) else None


class _Run:
    """A group's trains, reserved in one pass: an express run.

    The members are messages of one round whose chains share a resource
    (a message alone is a group of one), in key order.  :meth:`start`
    walks the resources in a topological order of the union of the
    chains.  On each it merges the members' requests in the kernel's
    arbitration order — instant, then key (members crossing a priority
    port have one class) — and grants them with ``Link._grant``'s own
    arithmetic: ``start = max(free_at, arrival)``, ``free_at = start +
    wire time``, hand-off at ``start + head + latency + delay``.  It
    writes each resource's final counters at once and queues each
    member's landing now (the per-train kernel queued it at the last
    grant, so landings at one float may fire in another order).
    Nothing else may touch the group's resources while it is live, so
    the values are the per-train kernel's bit for bit.

    When a request reaches a resource the group holds, :meth:`contact`
    either lets go of it (every grant there has happened) or
    :meth:`dissolve` settles the group to that instant: each resource
    is reset to its snapshot and replays, in merged order, the grants
    the per-train kernel would have made by then, and every other train
    becomes a :class:`_Train` at its position — scheduled at its next
    request, or waiting in a priority port's queue with the port's
    wake-up.
    """

    __slots__ = (
        "net", "members", "resources", "users", "arrivals", "grants",
        "snapshots", "stale", "left",
    )

    def __init__(self, net: Network, members: List[_Message]) -> None:
        self.net, self.members = net, members
        self.resources: List[Link] = []
        #: Per resource: the ``(member, stage)`` pairs crossing it.
        self.users: List[List[Tuple[int, int]]] = []
        #: Per member and stage: every train's request instant, and the
        #: instant the kernel grants it (the request on a link, the
        #: start on a priority port, which grants at its wake-up).
        self.arrivals: List[List[List[float]]] = []
        self.grants: List[List[List[float]]] = []
        #: Per resource: ``(free_at, busy_time, bytes_carried,
        #: max_queue_depth, admitted)`` before the group.
        self.snapshots: List[Tuple] = []
        #: Per member: whether its landing entry lost its last train to
        #: a dissolution.
        self.stale = [False] * len(members)
        self.left = len(members)  # landings to come

    def start(self) -> bool:
        """Reserve every train if the group's resources are quiet — no
        live run, no request staged this instant, no train in a port's
        queue — and its plan has no cycle, shared key, port shared by
        two classes or zero-lag hand-off (one at its grant's own
        instant: the next request would join a later round).  Returns
        whether it started; if not, nothing changed."""
        members, sim = self.members, self.net.sim
        chains = [[stage[0] for stage in m.segments[-1][2]] for m in members]
        for chain in chains:
            for resource in chain:
                holder = resource._run
                if resource.tracer is not None or resource._arbitrating:
                    return False
                if resource._queue or (
                    holder is not None and not holder.release(resource)
                ):
                    return False
        order = _topological(chains)
        if order is None or len({m.arb_base for m in members}) < len(members):
            return False
        position = {resource: r for r, resource in enumerate(order)}
        users: List[List[Tuple[int, int]]] = [[] for _ in order]
        for m, chain in enumerate(chains):
            for s, resource in enumerate(chain):
                users[position[resource]].append((m, s))
        for resource, crossing in zip(order, users):
            if resource.honors_priority and len(crossing) > 1:
                if len({members[m].cls for m, _ in crossing}) > 1:
                    return False
        self.resources, self.users = order, users
        for member, chain in zip(members, chains):
            self.arrivals.append([[sim.now] * member.left] + [[] for _ in chain[1:]])
            self.grants.append([[] for _ in chain])
        finals: List[Tuple[float, float, int, int, int]] = []
        landings = [0.0] * len(members)
        for r, resource in enumerate(order):
            crossing = users[r]
            merged: Optional[List[Tuple[float, int, int]]] = None
            if len(crossing) == 1:
                ((m, s),) = crossing
                starts, free_at, busy = self._walk(
                    m, s, resource._free_at, resource.busy_time, members[m].left
                )
                served = [starts]
            else:
                merged = self._order(r)
                served, free_at, busy = self._serve(
                    crossing, merged, resource._free_at, resource.busy_time
                )
            port = isinstance(resource, PriorityLink)  # grants at the start
            trains = carried = 0
            for (m, s), starts in zip(crossing, served):
                trains += len(starts)
                carried += self._bytes(m, s, len(starts))
                self.grants[m][s] = starts if port else self.arrivals[m][s]
                if s + 1 < len(chains[m]):
                    self.arrivals[m][s + 1] = self._handoffs(
                        m, s, starts, resource.latency_s
                    )
                else:  # the last train lands last
                    _, _, _, head_s, delay, *_ = members[m].segments[-1][2][s]
                    landings[m] = starts[-1] + head_s + resource.latency_s + delay
            depth = 0
            if port:
                depth = _peak_depth(
                    *self._queue_view(r, merged), trains, resource.max_queue_depth
                )
            finals.append((free_at, busy, depth, trains, carried))
        latest = max(landings)
        for member in members:
            for _, _, chain in member.segments:
                for resource, _, _, head_s, delay, *_ in chain:
                    lag = max(head_s, resource.latency_s, delay)
                    if not latest + 0.5 * lag > latest:  # not > ulp(latest)
                        return False
        for resource, (free_at, busy, depth, trains, carried) in zip(order, finals):
            queue_state = (0, 0)
            if isinstance(resource, PriorityLink):
                queue_state = (resource.max_queue_depth, resource._admitted)
                resource.max_queue_depth = depth
                resource._admitted += trains
            self.snapshots.append(
                (resource._free_at, resource.busy_time, resource.bytes_carried,
                 *queue_state)
            )
            resource._free_at, resource.busy_time = free_at, busy
            resource.bytes_carried += carried
            resource._run = self
            sim.extend_horizon(free_at + resource.latency_s)
        self.net._runs[self] = None
        for m, member in enumerate(members):
            member.left = 1  # the landing
            sim.schedule(landings[m], self.land, m)
        return True

    def _walk(
        self, m: int, s: int, free_at: float, busy: float, count: int
    ) -> Tuple[List[float], float, float]:
        """Member ``m``'s first ``count`` grants at its stage ``s``, as
        ``Link._grant`` makes them: their starts, then ``free_at`` and
        ``busy_time``.  :meth:`start` walks a resource one member crosses
        here, not by :meth:`_serve`: its requests are in grant order
        already, and skipping the merge keeps the per-train cost down (one
        walk for every resource measured a sixth more kernel time)."""
        arrivals, starts, done = self.arrivals[m][s], [], 0
        push = starts.append
        for trains, _, chain in self.members[m].segments:
            take = min(trains, count - done)
            if take <= 0:
                break
            serialization = chain[s][2]
            for arrival in arrivals[done : done + take]:
                start = free_at if free_at > arrival else arrival
                free_at = start + serialization
                busy += serialization
                push(start)
            done += take
        return starts, free_at, busy

    def _serve(
        self,
        crossing: List[Tuple[int, int]],
        merged: List[Tuple[float, int, int]],
        free_at: float,
        busy: float,
    ) -> Tuple[List[List[float]], float, float]:
        """:meth:`_walk` over the requests ``merged`` in grant order: each
        crossing member's starts, then ``free_at`` and ``busy_time``."""
        wire: List[List[float]] = [[] for _ in self.members]
        starts: List[List[float]] = [[] for _ in self.members]
        for m, s in crossing:  # every train's wire time, a segment at a time
            for trains, _, chain in self.members[m].segments:
                wire[m] += [chain[s][2]] * trains
            starts[m] = [0.0] * len(wire[m])
        for arrival, m, index in merged:
            start = free_at if free_at > arrival else arrival
            serialization = wire[m][index]
            free_at = start + serialization
            busy += serialization
            starts[m][index] = start
        return [starts[m] for m, _ in crossing], free_at, busy

    def _handoffs(
        self, m: int, s: int, starts: List[float], latency: float
    ) -> List[float]:
        """Every train's hand-off instant from member ``m``'s stage ``s``."""
        handoffs: List[float] = []
        done = 0
        for trains, _, chain in self.members[m].segments:
            head_s, delay = chain[s][3], chain[s][4]
            handoffs += [
                start + head_s + latency + delay
                for start in starts[done : done + trains]
            ]
            done += trains
        return handoffs

    def _bytes(self, m: int, s: int, count: int) -> int:
        """Bytes member ``m``'s first ``count`` trains carry over stage ``s``."""
        total = done = 0
        for trains, _, chain in self.members[m].segments:
            take = max(0, min(trains, count - done))
            total += take * chain[s][1]
            done += trains
        return total

    def _order(self, r: int) -> List[Tuple[float, int, int]]:
        """Resource ``r``'s ``(arrival, member, train)`` in grant order:
        instant, then key (members are in key order).  Rebuilt when
        needed rather than kept: a plan is live for many events."""
        merged: List[Tuple[float, int, int]] = []
        for m, s in self.users[r]:
            arrivals = self.arrivals[m][s]
            merged += zip(arrivals, repeat(m), range(len(arrivals)))
        merged.sort()
        return merged

    def _queue_view(
        self, r: int, merged: Optional[List[Tuple[float, int, int]]]
    ) -> Tuple[List[float], List[float]]:
        """Resource ``r``'s arrivals and grant instants, in the grant
        order ``merged`` (``None`` where one member crosses it)."""
        if merged is None:
            ((m, s),) = self.users[r]
            return self.arrivals[m][s], self.grants[m][s]
        stage = dict(self.users[r])
        return (
            [arrival for arrival, _, _ in merged],
            [self.grants[m][stage[m]][index] for _, m, index in merged],
        )

    def release(self, resource: Link) -> bool:
        """Let go of ``resource`` if all its grants have happened by now."""
        sim = self.net.sim
        users = self.users[self.resources.index(resource)]
        last = max(self.grants[m][s][-1] for m, s in users)
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
        """Turn the group back into trains, as the kernel has them at ``now``.

        A request at ``now`` itself counts as granted only ``late``,
        once the instant's first arbitration round has run; otherwise
        it rejoins this round's arbitration.
        """
        sim, members = self.net.sim, self.members
        cut = bisect_right if late else bisect_left
        granted = [[cut(grants, now) for grants in stages] for stages in self.grants]
        left = [1] * len(members)
        del self.net._runs[self]
        for r, resource in enumerate(self.resources):
            users = self.users[r]
            port = resource if isinstance(resource, PriorityLink) else None
            done = sum(granted[m][s] for m, s in users)
            free_at, busy, carried, depth, seq = self.snapshots[r]
            merged = self._order(r)
            if resource._run is self:  # not released: replay the prefix
                resource._run = None
                _, free_at, busy = self._serve(users, merged[:done], free_at, busy)
                resource._free_at, resource.busy_time = free_at, busy
                resource.bytes_carried = carried + sum(
                    self._bytes(m, s, granted[m][s]) for m, s in users
                )
                if port is not None:
                    admitted = sum(cut(self.arrivals[m][s], now) for m, s in users)
                    port.max_queue_depth = _peak_depth(
                        *self._queue_view(r, merged), admitted, depth
                    )
                    port._admitted = seq + admitted
            stage = dict(users)
            for arrival, m, index in merged[done:]:
                s = stage[m]
                if s and index >= granted[m][s - 1]:
                    continue  # not through the stage before yet
                train, step = self._train(m, index, s)
                queued = arrival < now or late and arrival == now
                if index == len(self.arrivals[m][0]) - 1:
                    self.stale[m] = True  # it lands by itself
                elif s < len(self.grants[m]) - 1 or port is None or not queued:
                    left[m] += 1  # it has yet to request its final stage
                if port is None or not queued:
                    sim.schedule(arrival, _Train.advance, train)
                    continue
                train.stage += 1
                _, nbytes, wire_s, head_s, delay, _, _, fn = step
                seq += 1
                request = (
                    train.keys[1], nbytes, wire_s, head_s, delay, fn, train, arrival
                )
                heapq.heappush(port._queue, (members[m].cls, seq, request))
                if not port._waking:
                    port._waking = True
                    sim.call_at(port._free_at, port._finish_service)
        for member, trains in zip(members, left):
            member.left = trains

    def _train(self, m: int, index: int, stage: int) -> Tuple["_Train", _Stage]:
        """Train ``index`` of member ``m``, about to request ``stage``."""
        member, done = self.members[m], 0
        for trains, shape, chain in member.segments:
            if index < done + trains:
                break
            done += trains
        train = _Train(member, chain, shape, index)
        train.stage = stage
        return train, chain[stage]

    def land(self, m: int) -> None:
        """Member ``m``'s last train landed: deliver it; the group's last
        landing also releases what is held."""
        if self.stale[m]:  # the last train is a :class:`_Train` now
            return
        self.left -= 1
        if not self.left:
            self.net._runs.pop(self, None)
            for resource in self.resources:
                if resource._run is self:
                    resource._run = None
        self.members[m].train_landed()
