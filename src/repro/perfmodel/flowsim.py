"""Flow-level evaluator of the exchange model (Sec. VIII-D).

The packet-granular pipeline is O(packets) in events and cannot reach
Fig-15-style sweeps at 1024-4096 nodes.  This module evaluates the
*same* exchange description in closed form, one numpy entry per
concurrent message, generalizing the paper's per-hop
``alpha + nbytes / beta`` cost to every stage a train crosses.

What is shared with the packet path by construction: message wire sizes
and the engine-dispatch decision (``build_wire_message`` through the
config's own NIC), train segmentation (``split_trains``), engine timing
(``ClusterConfig.nic_timing``) and the ring's block schedule
(``ring_step_blocks``).  What is evaluated here instead of by the event
kernel: the per-train stage chain of :meth:`Star.stages` — cut-through
chaining and FIFO reservation per resource, with same-instant arrivals
served in message order (the kernel's arbitration-key order).

Exactness: on the switched star the ring has zero cross-flow contention
(every stage resource serves one flow), so this reproduces the packet
pipeline to floating-point noise.  The WA exchange shares the
aggregator's links; single-train messages stay exact, while multi-train
gathers interleave trains round-robin in the packet model and serve
whole messages FIFO here — the one approximation, bounded by the parity
suite (``tests/perfmodel/test_flow_parity.py``).

Loss, retransmission, tracing and shared multi-tier fabrics remain
packet-mode features; :mod:`repro.perfmodel.exchange` rejects them
before calling in here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import StreamProfile
from repro.distributed.ring import ring_exchange_sizes, ring_step_blocks
from repro.network.packet import HEADER_BYTES, split_trains
from repro.transport.endpoint import ClusterConfig, TransferSummary
from repro.transport.wire import WireMessage, build_wire_message

if TYPE_CHECKING:
    from .exchange import Exchange, Measured

#: Where a batch of messages meets a resource class: an array gives
#: every message its own node's resource, an ``int`` one node's resource
#: shared by the whole batch and served in message order.
Nodes = Union[np.ndarray, int]


@dataclass
class Stage:
    """One FIFO resource class on a train's path.

    The tuple ``Network._train_process`` builds per train — (resource,
    bytes, head bytes, post-stage delay) — for a whole batch of
    messages: ``free`` holds the resource class's per-node free-at
    times and ``index`` says which of them each message occupies.
    """

    free: np.ndarray
    index: Nodes
    #: Engines carry the raw byte stream, links the wire bytes.
    engine: bool
    latency_s: float
    post_delay_s: float = 0.0


class Star:
    """The switched star's per-node FIFO resources and its stage chain."""

    def __init__(self, config: ClusterConfig) -> None:
        nodes = config.num_nodes
        self.tx_engine = np.zeros(nodes)
        self.uplink = np.zeros(nodes)
        self.downlink = np.zeros(nodes)
        self.rx_engine = np.zeros(nodes)
        self.link_latency_s = config.link_latency_s
        self.switch_delay_s = config.switch_delay_s
        self.engine_latency_s = config.nic_timing().engine_latency_s

    def stages(self, src: Nodes, dst: Nodes, compressed: bool) -> List[Stage]:
        """tx engine -> uplink -> switch -> downlink -> rx engine.

        The one place the star's chain is spelled; an ``int`` end is
        where every message of the batch meets (the aggregator).
        """
        chain = [
            Stage(self.uplink, src, False, self.link_latency_s, self.switch_delay_s),
            Stage(self.downlink, dst, False, self.link_latency_s),
        ]
        if compressed:
            chain.insert(0, Stage(self.tx_engine, src, True, self.engine_latency_s))
            chain.append(Stage(self.rx_engine, dst, True, self.engine_latency_s))
        return chain


class Trains:
    """Per-message train tables: serialization and head-packet times.

    Arrays are ``(messages, trains)``; messages with fewer trains are
    padded with inactive zero-byte entries.
    """

    def __init__(self, times: np.ndarray, active: np.ndarray) -> None:
        #: ``(link ser, link head, engine ser, engine head)`` stacked.
        self.times = times
        self.active = active

    def rows(self, index: np.ndarray) -> "Trains":
        """The tables of messages ``index`` (one row per entry)."""
        return Trains(self.times[:, index], self.active[index])


def sized_trains(
    config: ClusterConfig,
    sizes: Sequence[int],
    stream: Optional[StreamProfile] = None,
    ratio: Optional[float] = None,
) -> Tuple[List[WireMessage], Trains]:
    """Wire message and train table of each distinct message size.

    Sizes, engine dispatch and segmentation come from the packet path's
    own builders, once per distinct size (a ring has at most two block
    sizes, WA one per leg); the evaluators index the tables per step
    instead of rebuilding them.
    """
    nic = config.build_nic(0)
    messages = [
        build_wire_message(
            0, 1, stream=stream, nbytes=size, nic=nic, ratio=ratio, mss=config.mss
        )
        for size in sizes
    ]
    split = [
        split_trains(
            msg.num_packets, msg.wire_payload_nbytes, msg.nbytes, config.train_packets
        )
        for msg in messages
    ]
    # (packets, wire bytes, raw bytes) x size x train, zero-padded.
    table = np.zeros((3, len(split), max(map(len, split))), dtype=np.int64)
    for row, trains in enumerate(split):
        table[:, row, : len(trains)] = np.array(trains).T
    packets, wire_bytes, raw_bytes = table
    head_cap = HEADER_BYTES + config.mss
    link_bps = config.bandwidth_bps
    engine_bps = config.nic_timing().engine_throughput_bps * 8
    times = [
        wire_bytes * 8.0 / link_bps,
        np.minimum(wire_bytes, head_cap) * 8.0 / link_bps,
        raw_bytes * 8.0 / engine_bps,
        np.minimum(raw_bytes, head_cap) * 8.0 / engine_bps,
    ]
    return messages, Trains(np.stack(times), packets > 0)


def _serve_fifo(
    arrivals: np.ndarray, serialization: np.ndarray, free_at: float
) -> Tuple[np.ndarray, float]:
    """FIFO starts on one shared resource, in the given order.

    ``start[k] = max(arrival[k], finish[k-1])`` solved in closed form:
    with exclusive prefix sums ``c`` of the serialization times,
    ``start[k] - c[k]`` is the running maximum of ``arrival - c``
    (floored by the resource's prior ``free_at``).
    """
    prefix = np.zeros_like(serialization)
    np.cumsum(serialization[:-1], out=prefix[1:])
    starts = prefix + np.maximum(
        np.maximum.accumulate(arrivals - prefix), free_at
    )
    new_free = float(starts[-1] + serialization[-1]) if starts.size else free_at
    return starts, new_free


def deliver(t_send: np.ndarray, trains: Trains, stages: Sequence[Stage]) -> np.ndarray:
    """Delivery time of each message sent at ``t_send`` (last train landed).

    ``Link._reserve`` + ``transmit_cut_through`` for a batch: each stage
    starts a train at ``max(arrival, free_at)``, hands its head packet
    to the next stage after the head's serialization plus latency, and
    stays busy for the whole train.  Stages update their ``free`` arrays
    in place.  Padding trains compute but never reserve.
    """
    active = trains.active
    shape = active.shape
    enter = np.repeat(t_send[:, None], shape[1], axis=1)
    for stage in stages:
        ser, head = trains.times[2:] if stage.engine else trains.times[:2]
        if isinstance(stage.index, int):
            # Shared resource: whole messages in batch order.
            starts, stage.free[stage.index] = _serve_fifo(
                enter.ravel(), ser.ravel(), float(stage.free[stage.index])
            )
            starts = starts.reshape(shape)
            finish = starts + ser
        else:
            free = stage.free[stage.index]
            starts = np.empty(shape)
            finish = np.empty(shape)
            for t in range(shape[1]):
                starts[:, t] = np.maximum(enter[:, t], free)
                finish[:, t] = starts[:, t] + ser[:, t]
                free = np.where(active[:, t], finish[:, t], free)
            stage.free[stage.index] = free
        enter = starts + head + stage.latency_s + stage.post_delay_s
    landed = finish + stages[-1].latency_s
    return np.where(active, landed, -np.inf).max(axis=1)


def _summarize(
    legs: Sequence[Tuple[WireMessage, int, Sequence[Stage]]]
) -> TransferSummary:
    """The transfer log's fold over ``(message, times sent, stage chain)``
    legs; a leg's hop count is its chain's link stages."""
    messages = nbytes = wire_payload = compressed = link_payload = 0
    for msg, count, stages in legs:
        messages += count
        nbytes += msg.nbytes * count
        wire_payload += msg.wire_payload_nbytes * count
        compressed += count if msg.compressed else 0
        hops = sum(not stage.engine for stage in stages)
        link_payload += msg.wire_payload_nbytes * count * hops
    return TransferSummary(messages, nbytes, wire_payload, compressed, link_payload)


def flow_ring_exchange(job: Exchange) -> Measured:
    """Ring iterations on the job's star, every node stepped at once."""
    n, profile = job.num_workers, job.profile
    block_bytes = [s * 4 for s in ring_exchange_sizes(n, job.nbytes // 4)]
    sizes, size_of_block = np.unique(block_bytes, return_inverse=True)
    messages, trains = sized_trains(job.config, sizes.tolist(), job.stream, job.ratio)
    block_trains = trains.rows(size_of_block)
    block_sum_s = np.array([profile.sum_time(b) for b in block_bytes])

    workers = np.arange(n)
    successor, predecessor = (workers + 1) % n, (workers - 1) % n
    stages = Star(job.config).stages(workers, successor, messages[0].compressed)
    t_ready = np.zeros(n)
    sum_s = 0.0
    update_s = 0.0

    for _ in range(job.iterations):
        if job.include_local_compute and profile.local_compute_s:
            t_ready = t_ready + profile.local_compute_s
        for step in range(1, 2 * n - 1):
            send_idx, recv_idx = ring_step_blocks(workers, step, n)
            delivered = deliver(t_ready, block_trains.rows(send_idx), stages)
            t_ready = delivered[predecessor]
            if step < n:
                dt = block_sum_s[recv_idx]
                t_ready = t_ready + dt
                sum_s += float(dt[0])
        if profile.update_s:
            update_s += profile.update_s
            t_ready = t_ready + profile.update_s

    # Every block is sent by exactly one node per step.
    sends = np.bincount(size_of_block) * (2 * n - 2) * job.iterations
    legs = [(msg, count, stages) for msg, count in zip(messages, sends.tolist())]
    return float(t_ready.max()), sum_s, update_s, _summarize(legs)


def flow_wa_exchange(job: Exchange) -> Measured:
    """Worker-aggregator iterations on the job's star.

    Gather and scatter legs share the aggregator's downlink/uplink; the
    shared FIFOs serve in worker order (the arbitration-key order),
    matching the packet kernel exactly for single-train messages and
    whole-message FIFO for multi-train gathers.
    """
    p = aggregator = job.num_workers
    profile = job.profile
    workers = np.arange(p)
    every_worker = np.zeros(p, dtype=np.intp)  # one message size per leg
    star = Star(job.config)
    (gradient,), trains = sized_trains(job.config, [job.nbytes], job.stream, job.ratio)
    gather_trains = trains.rows(every_worker)
    gather = star.stages(workers, aggregator, gradient.compressed)
    (weight,), trains = sized_trains(job.config, [job.nbytes])  # always raw
    scatter_trains = trains.rows(every_worker)
    scatter = star.stages(aggregator, workers, weight.compressed)

    t_workers = np.zeros(p)
    agg_free = 0.0
    sum_s = 0.0
    update_s = 0.0
    dt_sum = profile.sum_time(job.nbytes)

    for _ in range(job.iterations):
        if job.include_local_compute and profile.local_compute_s:
            t_workers = t_workers + profile.local_compute_s
        gathered = deliver(t_workers, gather_trains, gather)

        # Aggregator: ordered recv, sum every arrival after the first.
        t_agg = max(agg_free, float(gathered[0]))
        for i in range(1, p):
            t_agg = max(t_agg, float(gathered[i])) + dt_sum
            sum_s += dt_sum
        if profile.update_s:
            update_s += profile.update_s
            t_agg += profile.update_s

        # All scatter sends spawn at the same instant.
        t_workers = deliver(np.full(p, t_agg), scatter_trains, scatter)
        agg_free = float(t_workers.max())

    sends = p * job.iterations
    legs = [(gradient, sends, gather), (weight, sends, scatter)]
    return agg_free, sum_s, update_s, _summarize(legs)
