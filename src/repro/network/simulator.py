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
(:class:`_Run`) — every train's grant on every stage computed in one
pass, the landings its only queue entries.  What the group's resources
already carry joins the plan: the trains a live run still has to
grant, and the trains waiting in a port's queue or staged this instant.
A request that later reaches a live run's resource is admitted the same
way: the run is re-planned from that instant with the newcomer.

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
resources while it is live, and settling replays a prefix of the
run's recorded grant order from a snapshot instead of subtracting; a
plan never depends on the round's dispatch order.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.obs import CAT_MESSAGE, Tracer

from .events import Event, Simulation
from .link import Link
from .loss import DeliveryFailure, LossModel, RetransmitPolicy
from .packet import DEFAULT_MSS, HEADER_BYTES, TOS_DEFAULT, packet_count, train_runs
from .priority import priority_class
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
#: Trains of one message at their positions: ``(message, lo, hi,
#: fixed)``.  It holds trains ``lo`` to ``hi - 1`` of ``message``;
#: ``fixed[s]`` lists, in index order, the known request instants of
#: those whose next request is stage ``s``.  A message not started yet
#: (:func:`_fresh`), a train whose request is made already
#: (:func:`_requested`) and the trains a run hands on are all specs: an
#: express run is planned from them, and :meth:`Network._resume` turns
#: them into trains.
_Spec = Tuple["_Message", int, int, List[List[float]]]
#: Distinct messages whose segments :meth:`Network.segments` keeps.
SEGMENT_CACHE = 256


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
        #: :meth:`_shape` by ``(route, nbytes, wire_payload, engines)``,
        #: cleared at :data:`SEGMENT_CACHE` entries: a compressed
        #: message's wire payload is its own, so a long run has many.
        self._shapes: Dict[Tuple, Tuple[List[_Segment], float]] = {}
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
        ``(msg, receipt)``.
        """
        return self.send_route(
            self.topology.route(msg.src, msg.dst, tos=msg.tos),
            msg.src,
            msg.dst,
            msg.nbytes,
            msg.wire_payload_nbytes,
            msg.tos,
            msg,
            msg.src if msg.compressed else None,
            msg.dst if msg.compressed else None,
            on_retransmit=on_retransmit,
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
        *,
        on_retransmit: Optional[RetransmitHook] = None,
    ) -> Event:
        """Send over ``route``, the one send path: :meth:`send` and
        :meth:`send_wire` resolve a host-to-host route, the reduction
        tree passes its segments.  Returns an event firing at delivery
        with value ``(payload, receipt)``.

        ``tx_engine_node``/``rx_engine_node`` name the endpoints whose
        compression engines bracket ``route`` (``None``, or a node
        without engines: no engine stage on that side, as on a
        switch-to-switch segment).  ``arb_base`` must be a deterministic
        identity for the message — the reduction plan assigns one per
        edge; by default it is the flow's ``(src, dst, seq)`` — so
        same-instant arbitration never depends on callback order.
        ``on_retransmit`` fires once per resent train with its packet
        and payload counts — the hook that lets functional NIC counters
        see every wire traversal.

        Untraced, a lossless message of more than one train sent in the
        instant's first round waits for :meth:`_plan_round`; any other
        starts its trains each on its own.
        """
        if nbytes < 0:
            raise ValueError("nbytes cannot be negative")
        if wire_payload < 0:
            raise ValueError("wire_payload cannot be negative")
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

        segments, lag = self._shape(
            route, nbytes, wire_payload, tx_engine_node, rx_engine_node
        )
        message = _Message(self.sim)
        message.net, message.receipt, message.payload = self, receipt, payload
        message.msg_id, message.on_retransmit = msg_id, on_retransmit
        message.segments, message.arb_base, message.cls = segments, arb_base, cls
        message.lag, message.left = lag, 1  # the landing
        message.trains = sum(count for count, _, _ in segments)
        express = tracer is None and not any(stage[6] for stage in segments[-1][2])
        if express and message.trains > 1 and self.sim.first_round():
            if not self._round:
                self.sim.before_arbitration(self._plan_round)
            self._round.append(message)
        else:
            self._resume([_fresh(message, self.sim.now)], False)
        return message

    # -- internals --------------------------------------------------------------

    def _settle_runs(self) -> None:
        """``run(until=...)`` stopped: turn live express runs into trains."""
        for run in list(self._runs):
            run.dissolve(self.sim.now, True)

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
        return self._shape(
            route, nbytes, wire_payload, tx_engine_node, rx_engine_node
        )[0]

    def _shape(
        self,
        route: Route,
        nbytes: int,
        wire_payload: int,
        tx_engine_node: Optional[int],
        rx_engine_node: Optional[int],
    ) -> Tuple[List[_Segment], float]:
        """:meth:`segments`, and the shortest lag from a grant to its
        hand-off they have (what an express run's zero-lag check reads).
        Equal messages share one list, which nobody changes."""
        tx_engine = self._tx_engines.get(tx_engine_node)
        rx_engine = self._rx_engines.get(rx_engine_node)
        key = (route, nbytes, wire_payload, tx_engine, rx_engine)
        known = self._shapes.get(key)
        if known is not None:
            return known
        runs = train_runs(
            packet_count(nbytes), wire_payload, nbytes, self.train_packets
        )
        segments = [
            (count, shape, self._stage_chain(
                route, shape, tx_engine, rx_engine, index == len(runs) - 1
            ))
            for index, (count, shape) in enumerate(runs)
        ]
        lag = min(
            max(head_s, resource.latency_s, delay)
            for _, _, chain in segments
            for resource, _, _, head_s, delay, *_ in chain
        )
        if len(self._shapes) >= SEGMENT_CACHE:
            self._shapes.clear()
        self._shapes[key] = (segments, lag)
        return segments, lag

    def _plan_round(self) -> None:
        """Plan the round's candidates in key order, each set whose
        chains share a resource as one group (:meth:`_admit`); a group
        the planner gives up starts per train, still in this round."""
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
        now = self.sim.now
        for members, _ in sorted(groups, key=lambda g: _member_key(g[0][0])):
            specs = [_fresh(message, now) for message in members]
            if not self._admit(specs):
                self._resume(specs, False)

    def _admit(self, specs: List[_Spec]) -> bool:
        """Plan ``specs`` from now, in the instant's first round, with
        everything their resources carry, as one run.

        The union grows until it is closed: a live run still to grant
        on one of its resources joins with every train it has not put
        through (:meth:`_Run.settle`), and a train waiting in a port's
        queue or staged this instant joins for its whole remaining chain
        (adopting it for one hop would give the plan up again at its
        next).  Returns whether the union was planned.  If not, nothing
        changed when a request that cannot be planned (a lossy train's,
        one that is not a train's, or a queue not admitted in instant,
        class and key order) was met; when the plan itself is given up,
        the runs taken in are per train again and the adopted requests
        are back where they were.
        """
        runs: Dict[_Run, None] = {}
        adopted: List[Tuple[Link, Tuple, Tuple]] = []  # resource, entry, request
        seen: Set[Link] = set()
        work = [
            stage[0]
            for message, _, _, fixed in specs
            for stage in message.segments[-1][2][_first(fixed):]
        ]
        while work:
            resource = work.pop()
            if resource in seen:
                continue
            seen.add(resource)
            holder = resource._run
            if holder in runs:
                continue
            if holder is not None and not holder.release(resource):
                runs[holder] = None
                work += [r for r in holder.resources if r._run is holder]
                continue
            if not (resource._queue or resource._pending):
                continue
            queue = sorted(resource._queue)  # (class, admission, request)
            if queue != sorted(queue, key=lambda e: (e[0], e[2][7], e[2][0])):
                return False  # not admitted in (instant, class, key) order
            entries = [(entry, entry[2]) for entry in queue]
            entries += [(request, request) for request in resource._pending]
            for entry, request in entries:
                train = request[6]
                if type(train) is not _Train or any(s[6] for s in train.chain):
                    return False
                adopted.append((resource, entry, request))
                work += [stage[0] for stage in train.chain[train.stage :]]
        now = self.sim.now
        handed: List[_Spec] = []
        for run in runs:
            handed += run.settle(now, False)
        for resource, _, _ in adopted:
            del resource._pending[:]
            if resource._queue:
                del resource._queue[:]
        joined = specs + [_requested(req[6], req[7]) for _, _, req in adopted]
        if _Run(self, joined + handed).start():
            for message, _, hi, fixed in joined:
                if hi < message.trains and not fixed[-1]:
                    message.left -= 1  # no longer goes in by itself
            return True
        for resource, entry, request in adopted:
            if entry is request:
                resource._pending.append(entry)
            else:
                heapq.heappush(resource._queue, entry)
        self._resume(handed, False)
        return False

    def _resume(self, specs: List[_Spec], late: bool) -> None:
        """Turn ``specs`` into trains, the one place trains start: each
        scheduled at its next request or, at a priority port it reached
        by now (at ``now`` only ``late``), in the port's queue, in
        admission order.  A message's ``left`` counts its landing; each
        train that goes by itself adds one until it requests its final
        stage."""
        sim = self.sim
        now = sim.now
        waiting: List[Tuple[Tuple[float, Tuple], _Train, _Stage]] = []
        for message, lo, _, fixed in specs:
            index, last = lo, len(fixed) - 1
            for s in range(last, -1, -1):
                for arrival in fixed[s]:
                    train, stage = _train_at(message, index, s)
                    queued = stage[5] and (arrival < now or late and arrival == now)
                    if index < message.trains - 1 and not (queued and s == last):
                        message.left += 1  # it has yet to request its final stage
                    if queued:
                        waiting.append(((arrival, train.keys[1]), train, stage))
                    else:
                        sim.schedule(arrival, _Train.advance, train)
                    index += 1
        waiting.sort(key=itemgetter(0))
        for (arrival, keys), train, stage in waiting:
            port, nbytes, wire_s, head_s, delay, _, _, fn = stage
            train.stage += 1
            port._admitted += 1
            request = (keys, nbytes, wire_s, head_s, delay, fn, train, arrival)
            heapq.heappush(port._queue, (keys[0], port._admitted, request))
            if not port._waking:
                port._waking = True
                sim.call_at(port._free_at, port._finish_service)

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
        "arb_base", "cls", "lag", "trains", "left",
    )
    net: Network
    receipt: MessageReceipt
    payload: object
    msg_id: int
    on_retransmit: Optional[RetransmitHook]
    segments: List[_Segment]
    arb_base: Tuple[int, int, int]  # the trains' keys' first fields
    cls: int  # the trains' class on priority ports
    lag: float  # the shortest lag from a grant to its hand-off
    trains: int
    #: Landings to come: the last train's, and one per other train that
    #: goes by itself and has yet to request its final stage.
    left: int

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


def _first(fixed: List[List[float]]) -> int:
    """The first stage a member's trains still have to request."""
    for stage, arrivals in enumerate(fixed):
        if arrivals:
            return stage
    raise ValueError("a member without trains")


def _fresh(message: _Message, now: float) -> _Spec:
    """The spec of ``message`` not started yet: every train at stage 0."""
    fixed = [[now] * message.trains] + [[] for _ in message.segments[0][2][1:]]
    return (message, 0, message.trains, fixed)


def _requested(train: _Train, at: float) -> _Spec:
    """The spec of ``train``, whose request for its current stage was
    made at ``at``."""
    fixed: List[List[float]] = [[] for _ in train.chain]
    fixed[train.stage - 1].append(at)
    index = train.keys[0][3]
    return (train.message, index, index + 1, fixed)


def _train_at(message: _Message, index: int, stage: int) -> Tuple[_Train, _Stage]:
    """Train ``index`` of ``message``, about to request ``stage``."""
    done = 0
    for trains, shape, chain in message.segments:
        if index < done + trains:
            break
        done += trains
    train = _Train(message, chain, shape, index)
    train.stage = stage
    return train, chain[stage]


def _walk(
    arrivals: List[float],
    spans: List[Tuple[int, _Stage]],
    free_at: float,
    busy: float,
) -> Tuple[List[float], float, float]:
    """The grants ``Link._grant`` makes to one member's requests at one
    stage (``arrivals``, of the shapes ``spans``): their starts, then
    ``free_at`` and ``busy_time``.  :meth:`_Run.start` walks a resource
    one member crosses here, not by :meth:`_Run._serve`: its requests are
    in grant order already, and skipping the merge keeps the per-train
    cost down (one walk for every resource measured a sixth more kernel
    time)."""
    starts: List[float] = []
    push, done = starts.append, 0
    for take, stage in spans:
        serialization = stage[2]
        for arrival in arrivals[done : done + take]:
            start = free_at if free_at > arrival else arrival
            free_at = start + serialization
            busy += serialization
            push(start)
        done += take
    return starts, free_at, busy


def _handoffs(
    spans: List[Tuple[int, _Stage]], starts: List[float], latency: float
) -> List[float]:
    """The hand-off instant of every train granted at ``starts``."""
    handoffs: List[float] = []
    done = 0
    for take, stage in spans:
        head_s, delay = stage[3], stage[4]
        handoffs += [
            start + head_s + latency + delay for start in starts[done : done + take]
        ]
        done += take
    return handoffs


def _bytes(spans: List[Tuple[int, _Stage]], count: int) -> int:
    """Bytes the first ``count`` trains of ``spans`` carry."""
    total = 0
    for take, stage in spans:
        take = min(take, count)
        total += take * stage[1]
        count -= take
    return total


def _topological(chains: List[List[Link]]) -> Optional[List[Link]]:
    """The resources of ``chains`` in an order every chain follows, or
    ``None`` if their union has a cycle (a chain crossing a resource
    twice makes one)."""
    if len(chains) == 1:
        return chains[0] if len(set(chains[0])) == len(chains[0]) else None
    successors: Dict[Link, Dict[Link, None]] = {
        resource: {} for chain in chains for resource in chain
    }
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            successors[a][b] = None
    indegree = dict.fromkeys(successors, 0)
    for after in successors.values():
        for b in after:
            indegree[b] += 1
    order = [resource for resource, degree in indegree.items() if not degree]
    for resource in order:
        for b in successors[resource]:
            indegree[b] -= 1
            if not indegree[b]:
                order.append(b)
    return order if len(order) == len(indegree) else None


class _Run:
    """Trains reserved in one pass: an express run.

    A member is a contiguous range of one message's trains, each at its
    own position: a message not started yet is all its trains at stage
    0; a run re-planned hands on the trains it has not put through; an
    adopted train is one train at the stage it requested (see
    :data:`_Spec`).  Members are in key order — ``(arb_base, message
    number, first train)`` — and one message's trains reach each stage in
    index order at non-decreasing instants.

    :meth:`start` walks the resources in a topological order of the
    union of the members' remaining chains.  On each it merges the
    requests in the kernel's arbitration order — instant, then key — and
    grants them with ``Link._grant``'s own arithmetic: ``start =
    max(free_at, arrival)``, ``free_at = start + wire time``, hand-off at
    ``start + head + latency + delay``.  A priority port whose requests
    are in several classes serves them as the port does (:meth:`_strict`).
    It keeps each resource's grant order, writes its final counters at
    once and queues each member's landing now (the per-train kernel
    queued it at the last grant, so landings at one float may fire in
    another order).  Nothing else touches the run's resources while it
    is live, so the values are the per-train kernel's bit for bit.

    When a request reaches a resource the run holds, :meth:`contact`
    lets go of it (every grant there has happened), admits the request
    (:meth:`Network._admit`: the run is settled to that instant and
    planned again with it), or — for a request that cannot be planned,
    and at a ``run(until=...)`` stop — :meth:`dissolve` turns the run
    back into trains.  :meth:`settle` resets each resource to its
    snapshot and replays the prefix of its grant order (or of its one
    member's walk) the per-train kernel would have granted by then; what
    it hands on is every train not through, at its position, and those
    members withdraw their landing entries (a plan made again can land
    them earlier: a train the newcomer delays upstream may no longer
    queue ahead).  A resource reports its run horizon only once it is
    let go, at its final state.
    """

    __slots__ = (
        "net", "members", "hi", "resources", "users", "arrivals", "grants",
        "orders", "snapshots", "landings", "left",
    )

    def __init__(self, net: Network, specs: List[_Spec]) -> None:
        specs = sorted(specs, key=lambda spec: (*_member_key(spec[0]), spec[1]))
        self.net = net
        self.members = [spec[0] for spec in specs]
        #: Per member: one past its last train.
        self.hi = [spec[2] for spec in specs]
        self.resources: List[Link] = []
        #: Per resource: the ``(member, stage)`` pairs crossing it.
        self.users: List[List[Tuple[int, int]]] = []
        #: Per member and stage: the request instant of every train it
        #: still requests there (the last ones of the member, in index
        #: order), and the instant the kernel grants it (the request on
        #: a link, the start on a priority port, which grants at its
        #: wake-up).
        self.arrivals = [list(spec[3]) for spec in specs]
        self.grants: List[List[List[float]]] = []
        #: Per resource: the member of each grant, in grant order (a
        #: member's own trains go in index order), ``None`` where one
        #: member crosses it: what :meth:`settle` replays a prefix of.
        self.orders: List[Optional[List[int]]] = []
        #: Per resource: ``(free_at, busy_time, bytes_carried)`` before
        #: the run.
        self.snapshots: List[Tuple[float, float, int]] = []
        #: Per member: the instant its landing entry is queued for.
        self.landings: List[float] = []
        self.left = len(specs)  # landings to come

    def start(self) -> bool:
        """Plan every member from its position, unless the plan has a
        cycle, two messages under one key base or a zero-lag hand-off
        (one at its grant's own instant: the next request would join a
        later round).  Returns whether it started; if not, nothing
        changed."""
        members, sim = self.members, self.net.sim
        chains = [[stage[0] for stage in m.segments[-1][2]] for m in members]
        firsts = [_first(arrivals) for arrivals in self.arrivals]
        bases: Dict[Tuple[int, int, int], _Message] = {}
        for member in members:
            if bases.setdefault(member.arb_base, member) is not member:
                return False
        order = _topological([chain[f:] for chain, f in zip(chains, firsts)])
        if order is None:
            return False
        position = {resource: r for r, resource in enumerate(order)}
        users: List[List[Tuple[int, int]]] = [[] for _ in order]
        for m, (chain, f) in enumerate(zip(chains, firsts)):
            for s in range(f, len(chain)):
                users[position[chain[s]]].append((m, s))
        self.resources, self.users = order, users
        self.grants = [[[] for _ in chain] for chain in chains]
        finals: List[Tuple[float, float, int]] = []
        landings = [0.0] * len(members)
        for r, resource in enumerate(order):
            crossing = users[r]
            spans = [self._spans(m, s) for m, s in crossing]
            port = resource.honors_priority  # grants at the start
            latency = resource.latency_s
            free_at, busy = resource._free_at, resource.busy_time
            if len(crossing) == 1:
                ((m, s),) = crossing
                arrivals = self.arrivals[m][s]
                starts, free_at, busy = _walk(arrivals, spans[0], free_at, busy)
                served = [starts]
                self.orders.append(None)
            else:
                merged = self._order(r)
                if port and len({members[m].cls for m, _ in crossing}) > 1:
                    merged = self._strict(r, spans, merged, free_at)
                served, free_at, busy = self._serve(
                    crossing, spans, merged, free_at, busy
                )
                self.orders.append([m for _, m, _ in merged])
            carried = 0
            for (m, s), starts, runs in zip(crossing, served, spans):
                carried += _bytes(runs, len(starts))
                self.grants[m][s] = starts if port else self.arrivals[m][s]
                if s + 1 < len(chains[m]):  # a new list: the spec's stays as it was
                    self.arrivals[m][s + 1] = self.arrivals[m][s + 1] + _handoffs(
                        runs, starts, latency
                    )
                else:  # the last train lands last
                    stage = runs[-1][1]
                    landings[m] = starts[-1] + stage[3] + latency + stage[4]
            finals.append((free_at, busy, carried))
        latest = max(landings)
        lag = min(member.lag for member in members)
        if not latest + 0.5 * lag > latest:  # not > ulp(latest)
            return False
        for resource, (free_at, busy, carried) in zip(order, finals):
            self.snapshots.append(
                (resource._free_at, resource.busy_time, resource.bytes_carried)
            )
            resource._free_at, resource.busy_time = free_at, busy
            resource.bytes_carried += carried
            resource._run = self
        self.net._runs[self] = None
        self.landings = landings
        for m, landing in enumerate(landings):
            sim.schedule(landing, self.land, m)
        return True

    def _spans(self, m: int, s: int) -> List[Tuple[int, _Stage]]:
        """``(trains, stage)`` of each shape among the trains member
        ``m`` requests stage ``s`` with, in index order."""
        member, hi = self.members[m], self.hi[m]
        first = hi - len(self.arrivals[m][s])
        if not first and hi == member.trains:
            return [(trains, chain[s]) for trains, _, chain in member.segments]
        spans: List[Tuple[int, _Stage]] = []
        done = 0
        for trains, _, chain in member.segments:
            end = done + trains
            take = min(hi, end) - max(first, done)
            if take > 0:
                spans.append((take, chain[s]))
            if end >= hi:
                break
            done = end
        return spans

    def _serve(
        self,
        crossing: List[Tuple[int, int]],
        spans: List[List[Tuple[int, _Stage]]],
        merged: List[Tuple[float, int, int]],
        free_at: float,
        busy: float,
    ) -> Tuple[List[List[float]], float, float]:
        """:func:`_walk` over the requests ``merged`` in grant order: each
        crossing member's starts, then ``free_at`` and ``busy_time``."""
        wire = self._wire(crossing, spans)
        starts = [[0.0] * len(times) for times in wire]
        for arrival, m, index in merged:
            start = free_at if free_at > arrival else arrival
            serialization = wire[m][index]
            free_at = start + serialization
            busy += serialization
            starts[m][index] = start
        return [starts[m] for m, _ in crossing], free_at, busy

    def _wire(
        self, crossing: List[Tuple[int, int]], spans: List[List[Tuple[int, _Stage]]]
    ) -> List[List[float]]:
        """Per member: the wire time of each train it requests its
        crossing stage with (empty for a member not crossing)."""
        wire: List[List[float]] = [[] for _ in self.members]
        for (m, _), runs in zip(crossing, spans):
            for take, stage in runs:
                wire[m] += [stage[2]] * take
        return wire

    def _order(self, r: int) -> List[Tuple[float, int, int]]:
        """Resource ``r``'s ``(arrival, member, train)`` in grant order
        where it is FIFO: instant, then key (members are in key order)."""
        merged: List[Tuple[float, int, int]] = []
        for m, s in self.users[r]:
            arrivals = self.arrivals[m][s]
            merged += zip(arrivals, repeat(m), range(len(arrivals)))
        merged.sort()
        return merged

    def _strict(
        self,
        r: int,
        spans: List[List[Tuple[int, _Stage]]],
        merged: List[Tuple[float, int, int]],
        free_at: float,
    ) -> List[Tuple[float, int, int]]:
        """The grant order of a priority port reached in several
        classes, served as the port serves (``PriorityLink._grant_pending``):
        each time it is free — at ``free_at``, or at the next arrival if
        none waits — it admits what has arrived by then and starts the
        waiting train of the lowest class, first admitted first.
        ``merged`` is the FIFO order (:meth:`_order`); within a class it
        is the port's admission order, ``(instant, class, key)``."""
        classes = [member.cls for member in self.members]
        wire = self._wire(self.users[r], spans)
        waiting: List[Tuple[int, int]] = []
        order: List[Tuple[float, int, int]] = []
        now, k = free_at, 0
        while k < len(merged) or waiting:
            if not waiting and now < merged[k][0]:
                now = merged[k][0]  # idle until then
            while k < len(merged) and merged[k][0] <= now:
                heapq.heappush(waiting, (classes[merged[k][1]], k))
                k += 1
            request = merged[heapq.heappop(waiting)[1]]
            order.append(request)
            now += wire[request[1]][request[2]]  # it starts at ``now``
        return order

    def release(self, resource: Link) -> bool:
        """Let go of ``resource`` if all its grants have happened by now."""
        sim = self.net.sim
        users = self.users[self.resources.index(resource)]
        last = max(self.grants[m][s][-1] for m, s in users)
        if last < sim.now or (last == sim.now and not sim.first_round()):
            self._let_go(resource)
            return True
        return False

    def _let_go(self, resource: Link) -> None:
        """Release ``resource`` at its final state: the run ends no
        earlier than its last transfer there lands (the run horizon)."""
        resource._run = None
        self.net.sim.extend_horizon(resource._free_at + resource.latency_s)

    def contact(self, resource: Link, train: object) -> bool:
        """``train`` is about to request ``resource``: admit it, or
        settle the run to now.  Returns whether the run took the
        request over."""
        if self.release(resource):
            return False
        net, sim = self.net, self.net.sim
        if (
            sim.first_round()
            and type(train) is _Train
            and not any(stage[6] for stage in train.chain)
            and net._admit([_requested(train, sim.now)])
        ):
            return True
        if resource._run is self:
            self.dissolve(sim.now, not sim.first_round())
        return False

    def settle(self, now: float, late: bool) -> List[_Spec]:
        """Bring the run's resources to ``now`` and let go of them; return
        every train not through, at its position.

        A request at ``now`` itself counts as granted only ``late``,
        once the instant's first arbitration round has run; otherwise
        it rejoins this round's arbitration.  A member with a train not
        through withdraws its landing entry.
        """
        cut = bisect_right if late else bisect_left
        granted = [[cut(grants, now) for grants in stages] for stages in self.grants]
        del self.net._runs[self]
        for r, resource in enumerate(self.resources):
            if resource._run is not self:  # released: its grants are final
                continue
            users = self.users[r]
            done = [granted[m][s] for m, s in users]
            if all(d == len(self.grants[m][s]) for d, (m, s) in zip(done, users)):
                self._let_go(resource)  # every grant has happened
                continue
            free_at, busy, carried = self.snapshots[r]
            spans = [self._spans(m, s) for m, s in users]
            granted_to = self.orders[r]
            if granted_to is None:  # the prefix of one member's walk
                ((m, s),) = users
                arrivals = self.arrivals[m][s][: done[0]]
                _, free_at, busy = _walk(arrivals, spans[0], free_at, busy)
            else:  # the prefix of the grant order
                stage, taken = dict(users), [0] * len(self.members)
                merged = []
                for m in granted_to[: sum(done)]:
                    index = taken[m]
                    merged.append((self.arrivals[m][stage[m]][index], m, index))
                    taken[m] = index + 1
                _, free_at, busy = self._serve(users, spans, merged, free_at, busy)
            resource._free_at, resource.busy_time = free_at, busy
            resource.bytes_carried = carried + sum(
                _bytes(runs, count) for runs, count in zip(spans, done)
            )
            self._let_go(resource)
        handed: List[_Spec] = []
        for m, (arrivals, done) in enumerate(zip(self.arrivals, granted)):
            counts = [len(stage) for stage in arrivals]
            if done[-1] == counts[-1]:
                continue  # every train is through: its landing stands
            self.left -= 1
            self.net.sim.cancel(self.landings[m], self.land, m)
            fixed = [arrivals[0][done[0]:]] + [
                arrivals[s][done[s] : counts[s] - counts[s - 1] + done[s - 1]]
                for s in range(1, len(arrivals))
            ]
            hi = self.hi[m]
            handed.append((self.members[m], hi - counts[-1] + done[-1], hi, fixed))
        return handed

    def dissolve(self, now: float, late: bool) -> None:
        """Turn the run back into trains, as the kernel has them at ``now``."""
        self.net._resume(self.settle(now, late), late)

    def land(self, m: int) -> None:
        """Member ``m``'s last train landed: deliver the message if that
        was its last; the run's last landing also releases what is
        held."""
        self.left -= 1
        if not self.left:
            self.net._runs.pop(self, None)
            for resource in self.resources:
                if resource._run is self:
                    self._let_go(resource)
        member = self.members[m]
        if self.hi[m] == member.trains:
            member.train_landed()
