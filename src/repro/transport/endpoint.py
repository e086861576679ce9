"""Message-passing endpoints over the simulated network.

This is the reproduction of the paper's software stack (Fig 11): an
OpenMPI-like layer whose ``collec_comm_comp`` APIs set the socket ToS so
the NIC engines pick the stream up.  Endpoints move real NumPy arrays
between simulated nodes: the *values* a receiver observes are the values
the stream's codec reconstructs (lossy when compression is on), and the
*bytes* the network simulator clocks are the codec's measured compressed
sizes — the functional and timing domains stay coupled.

Which codec (and ToS byte) a message uses is a per-stream property: a
:class:`repro.core.StreamProfile` passed to ``isend``.  A relay hop
receives the :class:`~repro.transport.wire.WireMessage` itself
(``recv_message``) and passes it on with ``forward``, which re-encodes
only when the stream's codec cannot vouch that its reconstructions are
fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core import CAP_FIXED_POINT, StreamProfile, get_codec
from repro.hardware.engine import BurstEngine
from repro.network import (
    BackgroundTraffic,
    Event,
    LossModel,
    Network,
    NicTimingModel,
    PRIORITY_HIGH,
    RetransmitPolicy,
    Simulation,
    Store,
    TenantSpec,
    TieBreak,
    build_topology,
)
from repro.network.packet import TOS_DEFAULT, payload_ratio
from repro.network.topology import DEFAULT_BANDWIDTH_BPS, Topology
from repro.obs import (
    CAT_CODEC, ZERO_COMPUTE, ComputeProfile, PhaseLedger, Tracer,
)

from .aggregation import AGG_ENDPOINT, validate_agg_site
from .wire import (
    Payload,
    SizedPayload,
    WireMessage,
    build_wire_message,
)


@dataclass(frozen=True)
class TransferSummary:
    """A run's wire statistics: what every message sent so far adds up to.

    The one transfer ledger.  Each send adds itself with :meth:`add` —
    the endpoint, the switch-site gather and the flow evaluator alike —
    so the packet and flow evaluators report one definition.
    """

    messages: int = 0
    nbytes: int = 0
    wire_payload_nbytes: int = 0
    compressed_messages: int = 0
    #: Wire payload weighted by hop count — the link-level load the
    #: fabric actually carries.  The figure the aggregation-site study
    #: compares: switch-site reduction sends *more* (shorter) segments
    #: but loads far fewer link-bytes than hauling every stream
    #: end-to-end.
    link_payload_nbytes: int = 0

    @property
    def wire_ratio(self) -> float:
        """Application bytes per wire payload byte across all messages.

        Zero-byte traffic is explicitly ratio 1.0 — ``None`` and ``0``
        are different things here (the zero-ratio bug's
        falsy-check cousin), so no ``or``-style default is used.
        """
        return payload_ratio(self.nbytes, self.wire_payload_nbytes)

    def add(
        self,
        nbytes: int,
        wire_payload: int,
        compressed: bool,
        hops: int,
        count: int = 1,
    ) -> TransferSummary:
        """This summary plus ``count`` sends of one message.

        The message carries ``nbytes`` application bytes as
        ``wire_payload`` bytes over a route of ``hops`` links.
        """
        return TransferSummary(
            self.messages + count,
            self.nbytes + nbytes * count,
            self.wire_payload_nbytes + wire_payload * count,
            self.compressed_messages + (count if compressed else 0),
            self.link_payload_nbytes + wire_payload * count * hops,
        )


@dataclass
class ClusterConfig:
    """Knobs of a simulated training cluster's communication plane.

    ``profile`` selects the default stream profile applied to gradient
    traffic (and implies NIC engines on every node).  The testbed's
    fixed constants are not knobs: link latency and switch delay
    (:mod:`repro.network.topology`), the MSS (:mod:`repro.network.packet`)
    and the engine clock (:mod:`repro.hardware.engine`).
    """

    num_nodes: int
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    engine_blocks: int = 8
    train_packets: int = Network.DEFAULT_TRAIN_PACKETS
    profile: Optional[StreamProfile] = None
    #: Bernoulli per-train drop probability on every link (0 = lossless).
    loss_rate: float = 0.0
    loss_seed: int = 0
    #: Sender recovery parameters; they act only when a train is lost.
    retransmit: RetransmitPolicy = RetransmitPolicy()
    #: Equal-timestamp event ordering policy; ``None`` is strict FIFO.
    #: The determinism sanitizer re-runs scenarios under a
    #: :class:`~repro.network.SeededTieBreak` to surface order races.
    tie_break: Optional[TieBreak] = None
    #: Fabric spec for :func:`repro.network.build_topology`
    #: (e.g. ``"fat-tree:k=4"``); ``None`` is the paper's switched star.
    topology: Optional[str] = None
    #: Background tenants placed on the fabric's spare host ports
    #: (empty = the training job has the network to itself).
    tenants: Tuple[TenantSpec, ...] = ()
    #: Honor per-ToS priority classes at multi-tier switch queues:
    #: foreground gradient/weight streams ride PRIORITY_HIGH, each
    #: tenant its spec's class.  Plain FIFO links ignore priority, so
    #: this only matters on priority-queued fabrics.
    prioritize: bool = False
    #: Seed for background-tenant arrival randomness.
    tenant_seed: int = 0
    #: Where gradient summation happens: ``"endpoint"`` (the historical
    #: disposition — every stream crosses the fabric and the aggregating
    #: host folds arrivals) or ``"switch"`` (in-network reduction at the
    #: fabric's merge vertices; needs a multi-tier topology and a
    #: homomorphic stream codec — see :mod:`repro.transport.aggregation`).
    agg_site: str = AGG_ENDPOINT

    def __post_init__(self) -> None:
        validate_agg_site(self.agg_site)
        # The loss model's own range check: a negative or NaN rate is an
        # error, not a lossless run.
        LossModel(self.loss_rate, seed=self.loss_seed)

    def nic_timing(self) -> NicTimingModel:
        """The timing view of every node's NIC engines: engine rate and
        fill latency.

        The one engine-to-timing conversion: the event kernel's engine
        stages read it, and the flow evaluator reads their chains.
        """
        engine = BurstEngine(self.engine_blocks)
        return NicTimingModel(
            engine_latency_s=engine.latency_s(),
            engine_throughput_bps=engine.throughput_bps(),
        )


class ClusterComm:
    """A simulated cluster's communication fabric with one endpoint per node.

    It holds the run's one copy of what its nodes compute: ``compute``,
    the :class:`~repro.obs.ComputeProfile` every spend reads.
    """

    def __init__(
        self,
        config: ClusterConfig,
        tracer: Optional[Tracer] = None,
        compute: ComputeProfile = ZERO_COMPUTE,
    ) -> None:
        self.config = config
        self.tracer = tracer
        self.compute = compute
        self.sim = Simulation(tie_break=config.tie_break)
        self.topology: Topology = build_topology(
            config.topology, self.sim, config.num_nodes, config.bandwidth_bps
        )
        loss = (
            LossModel(config.loss_rate, seed=config.loss_seed)
            if config.loss_rate > 0.0
            else None
        )
        self.network = Network(
            self.sim,
            self.topology,
            train_packets=config.train_packets,
            engine=config.nic_timing() if config.profile is not None else None,
            loss=loss,
            retransmit=config.retransmit,
            tracer=tracer,
            tos_priority=self._tos_priority(),
        )
        #: The tenants' traffic once :meth:`run` launched it (else None).
        self.background: Optional[BackgroundTraffic] = None
        self.endpoints: List[Endpoint] = [
            Endpoint(self, node) for node in range(config.num_nodes)
        ]
        #: Wire statistics of every message sent so far.
        self.transfers = TransferSummary()
        #: The run's Table II rows, fed only by :meth:`spend`/:meth:`spend_local`.
        self.ledger = PhaseLedger(tracer)

    def _tos_priority(self) -> Optional[Dict[int, int]]:
        """The ToS -> priority-class map, or ``None`` when not prioritizing.

        Foreground streams (the configured profile's ToS and raw weight
        traffic) ride :data:`~repro.network.PRIORITY_HIGH`; each tenant
        rides its spec's class.  A tenant ToS that collides with a
        foreground stream would silently demote the training job, so it
        is rejected.
        """
        if not self.config.prioritize:
            return None
        profile = self.config.profile
        foreground = {TOS_DEFAULT} if profile is None else {TOS_DEFAULT, profile.tos}
        mapping = {tos: PRIORITY_HIGH for tos in sorted(foreground)}
        for tenant in self.config.tenants:
            if tenant.tos in foreground:
                raise ValueError(
                    f"tenant ToS {tenant.tos:#04x} collides with a "
                    "foreground stream; pick a distinct byte"
                )
            mapping[tenant.tos] = tenant.priority
        return mapping

    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes

    def spend(
        self, name: str, dt: float, node: int, record: bool = True
    ) -> Generator[Event, Any, None]:
        """Spend ``dt`` simulated seconds at ``node`` computing phase ``name``.

        The one way a run's compute time passes: a timeout when there is
        time to spend, and with ``record`` a ledger row stamped where the
        spend starts (see :class:`~repro.obs.PhaseLedger` for who records).
        """
        start = self.sim.now
        if dt:
            yield self.sim.timeout(dt)
        if record:
            self.ledger.add(name, dt, node, start)

    def spend_local(
        self, node: int, record: bool, scale: float = 1.0
    ) -> Generator[Event, Any, None]:
        """:meth:`spend` for one forward/backward/copy block of ``compute``.

        ``scale`` is the block's compute jitter: the timeout and all
        three rows are ``scale`` times their nominal length.
        """
        start = self.sim.now
        dt = self.compute.local_compute_s * scale
        if dt:
            yield self.sim.timeout(dt)
        if record:
            self.ledger.add_local_compute(self.compute, start, node, scale)

    def run(self, foreground: Sequence[Event] = ()) -> float:
        """Drive the simulation; returns when the ``foreground`` finished.

        On a dedicated network that is the makespan.  Background tenants
        (on the fabric's host ports from ``num_nodes`` upward) never let
        it idle: they launch here and stop when every foreground process
        has finished; the queue then drains.
        """
        if not self.config.tenants:
            return self.sim.run()
        if not foreground:
            raise ValueError(
                "background tenants never let the fabric idle; pass the "
                "foreground processes to time"
            )
        background = BackgroundTraffic(
            self.network,
            self.config.tenants,
            first_host=self.config.num_nodes,
            seed=self.config.tenant_seed,
        )
        background.launch()
        self.background = background
        finish: Dict[str, float] = {}

        def foreground_done(_: Event) -> None:
            finish["t"] = self.sim.now
            background.stop()

        self.sim.all_of(list(foreground)).add_callback(foreground_done)
        self.sim.run()
        return finish["t"]


def _payload(msg: WireMessage) -> object:
    return msg.payload


class Endpoint:
    """One node's send/recv interface.

    Two receive styles exist: ``recv(src)`` (per-source FIFOs, used by
    the synchronous algorithms) and ``recv_any()`` (one shared FIFO,
    used by the asynchronous parameter server).  A delivery lands in
    exactly one of them, selected by the receiver's ``promiscuous``
    flag — mixing both styles on one endpoint is not supported.
    """

    def __init__(self, comm: ClusterComm, node_id: int) -> None:
        self.comm = comm
        self.node_id = node_id
        self._inboxes: Dict[int, Store] = {}
        self._any_inbox: Optional[Store] = None
        #: When True, deliveries go to the shared recv_any() queue.
        self.promiscuous = False
        #: Per-destination send sequence numbers (sender side).
        self._send_seq: Dict[int, int] = {}
        #: Per-source next expected sequence and the reorder buffer
        #: (receiver side).  Retransmission can complete message k
        #: *after* message k+1 of the same src->dst pair; releasing
        #: deliveries in send order keeps the per-source FIFO contract
        #: the synchronous exchanges depend on.
        self._next_seq: Dict[int, int] = {}
        self._reorder: Dict[int, Dict[int, WireMessage]] = {}

    def _inbox(self, src: int) -> Store:
        if self.promiscuous:
            return self._any_queue()
        if src not in self._inboxes:
            self._inboxes[src] = Store(self.comm.sim)
        return self._inboxes[src]

    def _any_queue(self) -> Store:
        if self._any_inbox is None:
            self._any_inbox = Store(self.comm.sim)
        return self._any_inbox

    def _deliver(self, src: int, msg: WireMessage) -> None:
        if self.promiscuous:
            self._any_queue().put((src, msg.payload))
        else:
            self._inbox(src).put(msg)

    def _deliver_ordered(self, src: int, seq: int, msg: WireMessage) -> None:
        """Release completed messages to the inbox in send order."""
        expected = self._next_seq.get(src, 0)
        if seq != expected:
            self._reorder.setdefault(src, {})[seq] = msg
            return
        self._deliver(src, msg)
        expected += 1
        buffered = self._reorder.get(src)
        while buffered and expected in buffered:
            self._deliver(src, buffered.pop(expected))
            expected += 1
        self._next_seq[src] = expected

    def _trace_codec(
        self,
        tracer: Tracer,
        codec: Optional[str],
        nbytes: int,
        compressed_nbytes: int,
        estimated: bool,
    ) -> None:
        """Record one compress call and its achieved (or assumed) ratio."""
        ratio = payload_ratio(nbytes, compressed_nbytes)
        tracer.instant(
            "codec.compress",
            cat=CAT_CODEC,
            ts=self.comm.sim.now,
            node=self.node_id,
            codec=codec,
            nbytes=nbytes,
            compressed_nbytes=compressed_nbytes,
            ratio=ratio,
            estimated=estimated,
        )
        metrics = tracer.metrics
        metrics.counter("codec_bytes_in", codec=codec).inc(nbytes)
        metrics.counter("codec_bytes_out", codec=codec).inc(compressed_nbytes)
        metrics.histogram(
            "codec_ratio", buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0), codec=codec
        ).observe(ratio)

    def build_message(
        self,
        dst: int,
        payload: Payload,
        profile: Optional[StreamProfile] = None,
    ) -> WireMessage:
        """Build this node's wire representation of one send.

        The one compression decision: ``profile``'s codec runs exactly
        once (see :func:`repro.transport.wire.build_wire_message`) when
        the cluster's NICs have engines — a configured
        ``ClusterConfig.profile`` — and the message ships raw otherwise.
        Functional sends pass an array; paper-scale timing sends pass a
        :class:`~repro.transport.wire.SizedPayload`.
        """
        stream = None if self.comm.config.profile is None else profile
        if isinstance(payload, SizedPayload):
            return build_wire_message(
                self.node_id,
                dst,
                stream=stream,
                nbytes=payload.nbytes,
                ratio=payload.ratio,
            )
        return build_wire_message(self.node_id, dst, stream=stream, array=payload)

    def isend_message(self, msg: WireMessage) -> Event:
        """Send a built :class:`WireMessage`; returns the delivery event.

        The one send path: the trace span, the transfer ledger, the timing
        simulation and the receiver-side delivery all read from the same
        message object.
        """
        if msg.src != self.node_id:
            raise ValueError(
                f"message built for node {msg.src} sent from {self.node_id}"
            )
        tracer = self.comm.tracer
        if msg.compressed and tracer is not None:
            self._trace_codec(
                tracer,
                msg.codec,
                msg.nbytes,
                msg.wire_payload_nbytes,
                msg.size_only,
            )
        route = self.comm.network.topology.route(
            msg.src, msg.dst, tos=msg.tos
        )
        self.comm.transfers = self.comm.transfers.add(
            msg.nbytes, msg.wire_payload_nbytes, msg.compressed, len(route.links)
        )
        event = self.comm.network.send_wire(msg)
        receiver = self.comm.endpoints[msg.dst]
        seq = self._send_seq.get(msg.dst, 0)
        self._send_seq[msg.dst] = seq + 1
        event.add_callback(lambda _: receiver._deliver_ordered(msg.src, seq, msg))
        return event

    def isend(
        self,
        dst: int,
        payload: Payload,
        profile: Optional[StreamProfile] = None,
    ) -> Event:
        """Non-blocking send; returns the delivery event.

        With a ``profile`` and engines present, an array is passed
        through the profile's codec: the receiver sees the lossy
        reconstruction and the wire carries the measured compressed
        bytes under the codec's ToS byte.  A size-only payload ships
        its bytes at its measured ratio; the receiver sees its size.
        """
        return self.isend_message(self.build_message(dst, payload, profile))

    def forward(
        self,
        dst: int,
        msg: WireMessage,
        payload: Payload,
        profile: Optional[StreamProfile] = None,
    ) -> Event:
        """Pass what ``msg`` delivered here on to ``dst``; returns the
        delivery event.

        ``msg`` was built under ``profile`` and ``payload`` is this
        node's copy of its values (or its size).  When ``msg``'s codec
        advertises :data:`~repro.core.CAP_FIXED_POINT`, re-encoding the
        received reconstruction would give the same values and wire
        size, so a compressed functional ``msg`` is re-addressed and
        sent as it is: the transfer ledger, trace instant and timing are
        those the re-encoding send gives (the modelled NIC still
        compresses the hop).  Any other message — raw, size-only, or
        under a codec without the capability — goes out as
        :meth:`isend` sends ``payload``.
        """
        codec = msg.codec  # set exactly when the message is compressed
        if (
            codec is not None
            and not msg.size_only
            and CAP_FIXED_POINT in get_codec(codec).capabilities()
        ):
            return self.isend_message(replace(msg, src=self.node_id, dst=dst))
        return self.isend(dst, payload, profile=profile)

    def recv(self, src: int) -> Event:
        """Event yielding the next array sent by ``src`` to this node."""
        if self.promiscuous:
            raise RuntimeError("promiscuous endpoints must use recv_any()")
        return self._inbox(src).get(_payload)

    def recv_message(self, src: int) -> Event:
        """Event yielding the next :class:`WireMessage` ``src`` sent here.

        The same per-source FIFO as :meth:`recv`, which yields the
        message's payload instead; a relay hop keeps the message to
        :meth:`forward` it.
        """
        if self.promiscuous:
            raise RuntimeError("promiscuous endpoints must use recv_any()")
        return self._inbox(src).get()

    def recv_any(self) -> Event:
        """Event yielding ``(src, payload)`` for the next arrival.

        Requires ``promiscuous = True`` *before* any message is sent to
        this endpoint.
        """
        if not self.promiscuous:
            raise RuntimeError("set promiscuous = True before using recv_any()")
        return self._any_queue().get()
