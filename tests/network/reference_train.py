"""The per-train generator process, kept verbatim as the test-side oracle.

This is ``Network.send_route`` and ``Network._train_process`` as they
stood before trains became callback objects: every train is a
:class:`~repro.network.events.Process` that yields one
``Link.request`` event per stage, and a message completes through
``all_of`` over its trains' processes.  It is slow and obviously
ordered, which is what makes it a reference: ``test_train_oracle``
sends generated message mixes through :class:`ReferenceNetwork` and
:class:`~repro.network.Network` and requires the same delivery times,
receipts, link counters, retransmissions and trace events.  Links,
engines and priority ports are shared with production (they are the
resources the trains walk, not the thing under test).
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple

from repro.network import Link, Network
from repro.network.events import Event
from repro.network.loss import DeliveryFailure
from repro.network.packet import DEFAULT_MSS, HEADER_BYTES, TOS_DEFAULT, packet_count
from repro.network.priority import PRIORITY_DEFAULT
from repro.network.simulator import MessageReceipt, RetransmitHook
from repro.network.topology import Route
from repro.obs import CAT_MESSAGE


def split_trains(
    num_packets: int, wire_payload: int, raw_payload: int, train_packets: int
) -> List[Tuple[int, int, int]]:
    """Divide a message into packet trains with proportional bytes.

    Returns ``(packets, wire_bytes, raw_bytes)`` per train, byte counts
    including per-packet headers: one loop step per train, which is
    what makes it the oracle of :func:`repro.network.packet.train_runs`
    (``test_packet``), the run-at-a-time form the kernel reads.
    """
    trains: List[Tuple[int, int, int]] = []
    remaining_packets = num_packets
    wire_left, raw_left = wire_payload, raw_payload
    while remaining_packets > 0:
        pkts = min(train_packets, remaining_packets)
        frac = pkts / num_packets
        wire = min(wire_left, round(wire_payload * frac))
        raw = min(raw_left, round(raw_payload * frac))
        remaining_packets -= pkts
        if remaining_packets == 0:  # last train absorbs rounding
            wire, raw = wire_left, raw_left
        wire_left -= wire
        raw_left -= raw
        trains.append(
            (pkts, pkts * HEADER_BYTES + wire, pkts * HEADER_BYTES + raw)
        )
    return trains


class ReferenceNetwork(Network):
    """:class:`~repro.network.Network` with the generator train path."""

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
        """The one send path: trace, segment into trains, spawn processes.

        The engine nodes name the endpoints whose compression engines
        bracket ``route`` (``None``, or a node without engines: no
        engine stage on that side).
        """
        tx_engine = self._tx_engines.get(tx_engine_node)
        rx_engine = self._rx_engines.get(rx_engine_node)
        priority: Optional[int] = None
        if self.tos_priority is not None:
            priority = self.tos_priority.get(tos, PRIORITY_DEFAULT)
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

        trains = split_trains(num_packets, wire_payload, nbytes, self.train_packets)
        procs = [
            self.sim.process(
                self._train_process(
                    route,
                    pkts,
                    wire,
                    raw,
                    tx_engine,
                    rx_engine,
                    src,
                    dst,
                    on_retransmit,
                    arb_key=(*arb_base, index),
                    priority=priority,
                )
            )
            for index, (pkts, wire, raw) in enumerate(trains)
        ]
        done = self.sim.event()

        def finish(_: Event) -> None:
            receipt.delivered_at = self.sim.now
            if tracer is not None:
                tracer.instant(
                    "msg.deliver",
                    cat=CAT_MESSAGE,
                    ts=self.sim.now,
                    node=dst,
                    msg=msg_id,
                    src=src,
                )
                tracer.span(
                    "msg.flight",
                    cat=CAT_MESSAGE,
                    ts=receipt.sent_at,
                    dur=self.sim.now - receipt.sent_at,
                    node=src,
                    msg=msg_id,
                    dst=dst,
                    nbytes=nbytes,
                    wire_nbytes=wire_total,
                )
                tracer.metrics.counter("messages_delivered").inc()
            done.succeed((payload, receipt))

        self.sim.all_of(procs).add_callback(finish)
        return done

    def _train_process(
        self,
        route: Route,
        packets: int,
        wire_bytes: int,
        raw_bytes: int,
        tx_engine: Optional[Link],
        rx_engine: Optional[Link],
        src: int,
        dst: int,
        on_retransmit: Optional[RetransmitHook] = None,
        arb_key: Optional[Tuple[int, int, int, int]] = None,
        priority: Optional[int] = None,
    ) -> Generator[Event, Any, None]:
        """Pipeline one packet train through engines and links.

        Stages hand off with virtual cut-through: the next stage starts
        when the train's head packet arrives (plus the hop's forwarding
        delay), not when the whole train has been stored — so results do
        not depend on the simulation's train granularity.  The final
        stage completes store-and-forward (delivery means the last byte
        arrived).  Either way the process wakes once per stage.

        ``arb_key`` — ``(src, dst, flow seq, train index)`` — arbitrates
        same-instant contention on every stage: when several trains hit
        one FIFO resource at the same simulated time, grants go in key
        order, not in event-callback order, so contention outcomes
        cannot race on equal-timestamp event scheduling.

        ``priority`` is the train's class at priority-queued switch
        egress ports (multi-tier fabrics); plain FIFO links ignore it.
        """
        head_wire = min(wire_bytes, HEADER_BYTES + DEFAULT_MSS)
        head_raw = min(raw_bytes, HEADER_BYTES + DEFAULT_MSS)

        # (resource, bytes, bytes awaited before hand-off, hand-off delay)
        stages = []
        if tx_engine is not None:
            stages.append((tx_engine, raw_bytes, head_raw, 0.0))
        last_hop = len(route.links) - 1
        for hop, link in enumerate(route.links):
            delay = route.forwarding_delay_s if hop < last_hop else 0.0
            stages.append((link, wire_bytes, head_wire, delay))
        if rx_engine is not None:
            stages.append((rx_engine, raw_bytes, head_raw, 0.0))
        # Inner stages hand off on head arrival; the final one completes
        # store-and-forward, i.e. awaits the whole train.
        resource, nbytes, _, delay = stages[-1]
        stages[-1] = (resource, nbytes, nbytes, delay)

        attempts = 0
        while True:
            attempts += 1
            dropped = False
            for resource, nbytes, head, delay in stages:
                if resource.should_drop(packets):
                    # The wire time is spent; the loss is discovered at
                    # the sender one RTO after the expected delivery.
                    head, delay, dropped = nbytes, self.retransmit.rto_s, True
                # The one event this stage waits on.
                yield resource.request(
                    nbytes, head, delay, key=arb_key, priority=priority
                )
                if dropped:
                    break
            if not dropped:
                return
            self.trains_retransmitted += 1
            self.packets_retransmitted += packets
            if on_retransmit is not None:
                on_retransmit(
                    packets,
                    wire_bytes - packets * HEADER_BYTES,
                    raw_bytes - packets * HEADER_BYTES,
                )
            if self.tracer is not None:
                self.tracer.instant(
                    "train.retransmit",
                    cat=CAT_MESSAGE,
                    ts=self.sim.now,
                    node=src,
                    dst=dst,
                    attempt=attempts,
                )
                self.tracer.metrics.counter("trains_retransmitted").inc()
            limit = self.retransmit.max_attempts
            if limit is not None and attempts >= limit:
                raise DeliveryFailure(
                    f"train between nodes {src}->{dst} lost {attempts} times"
                )
