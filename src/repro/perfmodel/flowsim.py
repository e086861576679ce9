"""Flow-level fast path for the exchange simulators (Sec. VIII-D model).

The packet-granular pipeline is O(packets) in events and cannot reach
Fig-15-style sweeps at 1024-4096 nodes.  This module replays the *same*
per-train timing recurrence the event kernel executes — cut-through
stage chaining, FIFO reservation per resource, keyed same-instant
arbitration order — as a vectorized dynamic program over numpy arrays,
one entry per concurrent flow, generalizing the paper's per-hop
``alpha + nbytes / beta`` cost model to every wire traversal (engine,
uplink, downlink, engine).

Exactness: on the switched-star fabric the ring exchange has zero
cross-flow contention (each uplink and downlink serves exactly one
flow), so the flow DP reproduces the packet pipeline to floating-point
noise.  The WA exchange shares the aggregator's links; single-train
messages arrive in arbitration-key order and stay exact, while
multi-train gathers interleave trains round-robin in the packet model
and whole-message FIFO here — the one approximation, bounded by the
parity suite's pinned tolerance (``tests/perfmodel/test_flow_parity.py``).

Loss, retransmission and tracing remain packet-mode features; the
``fidelity="flow"`` wrappers in :mod:`repro.perfmodel.exchange` reject
them up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.core import ErrorBound, StreamProfile
from repro.core.bounds import DEFAULT_BOUND
from repro.distributed.node import ComputeProfile, ZERO_COMPUTE
from repro.distributed.ring import ring_exchange_sizes
from repro.hardware.nic import InceptionnNic
from repro.hardware.timing import engine_latency_s, engine_throughput_bps
from repro.network.packet import HEADER_BYTES
from repro.transport.endpoint import ClusterConfig

if TYPE_CHECKING:
    from .exchange import ExchangeResult


@dataclass(frozen=True)
class FlowFabric:
    """Per-traversal cost parameters mirroring one :class:`ClusterConfig`.

    Each wire traversal is an ``(alpha, beta)`` pair — a latency plus a
    serialization rate — applied per stage of a flow's path, exactly the
    quantities the packet pipeline's :class:`repro.network.link.Link`
    uses.
    """

    bandwidth_bps: float
    link_latency_s: float
    switch_delay_s: float
    engine_bandwidth_bps: float
    engine_latency_s: float
    mss: int
    train_packets: int

    @classmethod
    def from_config(cls, config: ClusterConfig) -> "FlowFabric":
        """Derive the flow costs from the packet mode's own config."""
        return cls(
            bandwidth_bps=config.bandwidth_bps,
            link_latency_s=config.link_latency_s,
            switch_delay_s=config.switch_delay_s,
            engine_bandwidth_bps=engine_throughput_bps(
                config.engine_blocks, config.engine_clock_hz
            )
            * 8,
            engine_latency_s=engine_latency_s(config.engine_clock_hz),
            mss=config.mss,
            train_packets=config.train_packets,
        )

    @property
    def head_cap(self) -> int:
        """Largest head-packet size (header plus one MSS payload)."""
        return HEADER_BYTES + self.mss


def stream_compresses(
    stream: Optional[StreamProfile], bound: ErrorBound = DEFAULT_BOUND
) -> bool:
    """Whether gradient messages traverse the NIC engines.

    Mirrors the packet path: the sender NIC's comparator dispatches the
    stream's ToS (``build_wire_message``), and engines are present on
    the timing NICs exactly when a profile is configured.
    """
    if stream is None:
        return False
    nic = InceptionnNic(0, bound, enabled=True)
    return stream.compressing and nic.dispatches(stream.resolved_tos)


def wire_payload_nbytes(
    nbytes: np.ndarray, ratio: Optional[float], compressed: bool
) -> np.ndarray:
    """On-wire payload per message, as ``build_wire_message`` computes it."""
    if not compressed:
        return nbytes.astype(np.int64)
    divisor = 1.0 if ratio is None else ratio
    return np.rint(nbytes / divisor).astype(np.int64)


def split_trains(
    nbytes: np.ndarray, wire_payload: np.ndarray, fabric: FlowFabric
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Vectorized mirror of ``Network._split_trains`` over a batch.

    Returns one ``(packets, wire_bytes, raw_bytes)`` triple per train
    index (int64 arrays over the batch, byte counts including
    per-packet headers).  Batch entries whose message has fewer trains
    get zero-packet padding entries.
    """
    raw = nbytes.astype(np.int64)
    wire = wire_payload.astype(np.int64)
    num_packets = np.maximum(1, -(-raw // fabric.mss))
    remaining = num_packets.copy()
    wire_left, raw_left = wire.copy(), raw.copy()
    trains: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    while int(remaining.max()) > 0:
        pkts = np.minimum(fabric.train_packets, remaining)
        frac = pkts / num_packets
        wire_t = np.minimum(wire_left, np.rint(wire * frac).astype(np.int64))
        raw_t = np.minimum(raw_left, np.rint(raw * frac).astype(np.int64))
        last = remaining - pkts == 0
        wire_t = np.where(last, wire_left, wire_t)
        raw_t = np.where(last, raw_left, raw_t)
        remaining = remaining - pkts
        wire_left = wire_left - wire_t
        raw_left = raw_left - raw_t
        trains.append(
            (pkts, pkts * HEADER_BYTES + wire_t, pkts * HEADER_BYTES + raw_t)
        )
    return trains


def _traverse(
    enter: np.ndarray,
    free: np.ndarray,
    nbytes: np.ndarray,
    head: np.ndarray,
    bandwidth_bps: float,
    latency_s: float,
    active: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One batch of trains over one batch of *distinct* FIFO resources.

    The packet kernel's ``Link._reserve`` + ``transmit_cut_through``
    arithmetic, element-wise: returns ``(head_arrival, delivered,
    new_free)``.  ``active`` masks padding trains out of the
    reservation.
    """
    start = np.maximum(enter, free)
    finish = start + nbytes * 8.0 / bandwidth_bps
    head_arrival = start + head * 8.0 / bandwidth_bps + latency_s
    delivered = finish + latency_s
    return head_arrival, delivered, np.where(active, finish, free)


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


def _transfer_distinct(
    t_send: np.ndarray,
    trains: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    fabric: FlowFabric,
    compressed: bool,
    free_tx: np.ndarray,
    free_up: np.ndarray,
    free_down: np.ndarray,
    free_rx: np.ndarray,
) -> np.ndarray:
    """Deliver a batch of messages whose stage resources are all distinct.

    The ``free_*`` arrays are this batch's resource slices (already
    gathered per message); they are updated in place.  Returns each
    message's delivery time (last train fully received).
    """
    delivered_msg = np.full(t_send.shape, -np.inf)
    for pkts, wire_b, raw_b, in trains:
        active = pkts > 0
        head_w = np.minimum(wire_b, fabric.head_cap)
        head_r = np.minimum(raw_b, fabric.head_cap)
        cursor = t_send
        if compressed:
            head_arr, _, free_tx[:] = _traverse(
                cursor,
                free_tx,
                raw_b,
                head_r,
                fabric.engine_bandwidth_bps,
                fabric.engine_latency_s,
                active,
            )
            cursor = head_arr
        head_arr, delivered, free_up[:] = _traverse(
            cursor,
            free_up,
            wire_b,
            head_w,
            fabric.bandwidth_bps,
            fabric.link_latency_s,
            active,
        )
        cursor = head_arr + fabric.switch_delay_s
        head_arr, delivered, free_down[:] = _traverse(
            cursor,
            free_down,
            wire_b,
            head_w,
            fabric.bandwidth_bps,
            fabric.link_latency_s,
            active,
        )
        if compressed:
            _, delivered, free_rx[:] = _traverse(
                head_arr,
                free_rx,
                raw_b,
                head_r,
                fabric.engine_bandwidth_bps,
                fabric.engine_latency_s,
                active,
            )
        delivered_msg = np.maximum(
            delivered_msg, np.where(active, delivered, -np.inf)
        )
    return delivered_msg


def simulate_ring_exchange_flow(
    num_workers: int,
    nbytes: int,
    iterations: int = 1,
    bandwidth_bps: float = 10e9,
    profile: ComputeProfile = ZERO_COMPUTE,
    stream: Optional[StreamProfile] = None,
    gradient_ratio: Optional[float] = None,
    bound: ErrorBound = DEFAULT_BOUND,
    include_local_compute: bool = False,
    train_packets: int = 4400,
) -> "ExchangeResult":
    """Flow-level replica of :func:`repro.perfmodel.exchange.simulate_ring_exchange`.

    ``stream`` and ``gradient_ratio`` arrive already resolved (the
    packet-mode wrapper owns the ratio measurement).
    """
    from .exchange import ExchangeResult

    if num_workers < 2:
        raise ValueError("need at least two workers")
    n = num_workers
    config = ClusterConfig(
        num_nodes=n,
        bandwidth_bps=bandwidth_bps,
        bound=bound,
        train_packets=train_packets,
        profile=stream,
    )
    fabric = FlowFabric.from_config(config)
    compressed = stream_compresses(stream, bound)

    block = np.array(
        [s * 4 for s in ring_exchange_sizes(n, nbytes // 4)], dtype=np.int64
    )
    wire_block = wire_payload_nbytes(block, gradient_ratio, compressed)
    workers = np.arange(n)
    succ = (workers + 1) % n
    pred = (workers - 1) % n

    free_up = np.zeros(n)
    free_down = np.zeros(n)
    free_tx = np.zeros(n)
    free_rx = np.zeros(n)
    t_ready = np.zeros(n)
    sum_s = 0.0
    update_s = 0.0
    sum_bw = profile.sum_bandwidth_bps

    for _ in range(iterations):
        if include_local_compute and profile.local_compute_s:
            t_ready = t_ready + profile.local_compute_s
        for step in range(1, 2 * n - 1):
            send_idx = (workers - step + 1) % n
            sizes = block[send_idx]
            trains = split_trains(sizes, wire_block[send_idx], fabric)
            down_slice = free_down[succ]
            rx_slice = free_rx[succ]
            delivered = _transfer_distinct(
                t_ready,
                trains,
                fabric,
                compressed,
                free_tx,
                free_up,
                down_slice,
                rx_slice,
            )
            free_down[succ] = down_slice
            free_rx[succ] = rx_slice
            t_ready = delivered[pred]
            if step < n:
                recv_sizes = block[(workers - step) % n]
                if sum_bw > 0:
                    dt = recv_sizes / sum_bw
                    t_ready = t_ready + dt
                    sum_s += float(dt[0])
        if profile.update_s:
            update_s += profile.update_s
            t_ready = t_ready + profile.update_s

    steps_per_iter = 2 * n - 2
    sent = int(block.sum()) * steps_per_iter * iterations
    wire_sent = int(wire_block.sum()) * steps_per_iter * iterations
    return ExchangeResult(
        algorithm="ring",
        num_workers=n,
        nbytes=nbytes,
        iterations=iterations,
        total_s=float(t_ready.max()),
        gradient_sum_s=sum_s,
        update_s=update_s,
        sent_nbytes=sent,
        wire_payload_nbytes=wire_sent,
        trains_retransmitted=0,
    )


def simulate_wa_exchange_flow(
    num_workers: int,
    nbytes: int,
    iterations: int = 1,
    bandwidth_bps: float = 10e9,
    profile: ComputeProfile = ZERO_COMPUTE,
    stream: Optional[StreamProfile] = None,
    gradient_ratio: Optional[float] = None,
    bound: ErrorBound = DEFAULT_BOUND,
    include_local_compute: bool = False,
    train_packets: int = 4400,
) -> "ExchangeResult":
    """Flow-level replica of :func:`repro.perfmodel.exchange.simulate_wa_exchange`.

    Gather and scatter legs share the aggregator's downlink/uplink; the
    shared-resource FIFO is served in arbitration-key order, matching
    the packet kernel exactly for single-train messages and
    whole-message FIFO for multi-train gathers.
    """
    from .exchange import ExchangeResult

    if num_workers < 2:
        raise ValueError("need at least two workers")
    p = num_workers
    config = ClusterConfig(
        num_nodes=p + 1,
        bandwidth_bps=bandwidth_bps,
        bound=bound,
        train_packets=train_packets,
        profile=stream,
    )
    fabric = FlowFabric.from_config(config)
    compressed = stream_compresses(stream, bound)

    sizes = np.full(p, nbytes, dtype=np.int64)
    wire_g = wire_payload_nbytes(sizes, gradient_ratio, compressed)
    gather_trains = split_trains(sizes, wire_g, fabric)
    scatter_trains = split_trains(sizes, sizes, fabric)

    free_up = np.zeros(p + 1)
    free_down = np.zeros(p + 1)
    free_tx = np.zeros(p + 1)
    free_rx = np.zeros(p + 1)
    t_workers = np.zeros(p)
    agg_free = 0.0
    sum_s = 0.0
    update_s = 0.0
    dt_sum = profile.sum_time(nbytes)

    for _ in range(iterations):
        if include_local_compute and profile.local_compute_s:
            t_workers = t_workers + profile.local_compute_s

        # -- gather: workers -> aggregator (engines when compressed) ----
        # Distinct stages (tx engine, own uplink) run vectorized; the
        # shared aggregator downlink and rx engine serve whole messages
        # in worker order (the arbitration key order).
        num_trains = len(gather_trains)
        arr_down = np.empty((p, num_trains))
        ser_down = np.empty((p, num_trains))
        head_down = np.empty((p, num_trains))
        raw_ser = np.empty((p, num_trains))
        raw_head = np.empty((p, num_trains))
        for t, (pkts, wire_b, raw_b) in enumerate(gather_trains):
            active = pkts > 0
            head_w = np.minimum(wire_b, fabric.head_cap)
            head_r = np.minimum(raw_b, fabric.head_cap)
            cursor = t_workers
            if compressed:
                head_arr, _, free_tx[:p] = _traverse(
                    cursor,
                    free_tx[:p],
                    raw_b,
                    head_r,
                    fabric.engine_bandwidth_bps,
                    fabric.engine_latency_s,
                    active,
                )
                cursor = head_arr
            head_arr, _, free_up[:p] = _traverse(
                cursor,
                free_up[:p],
                wire_b,
                head_w,
                fabric.bandwidth_bps,
                fabric.link_latency_s,
                active,
            )
            arr_down[:, t] = head_arr + fabric.switch_delay_s
            ser_down[:, t] = wire_b * 8.0 / fabric.bandwidth_bps
            head_down[:, t] = head_w * 8.0 / fabric.bandwidth_bps
            raw_ser[:, t] = raw_b * 8.0 / fabric.engine_bandwidth_bps
            raw_head[:, t] = head_r * 8.0 / fabric.engine_bandwidth_bps
        starts, new_free = _serve_fifo(
            arr_down.ravel(), ser_down.ravel(), float(free_down[p])
        )
        free_down[p] = new_free
        down_head = starts + head_down.ravel() + fabric.link_latency_s
        down_done = starts + ser_down.ravel() + fabric.link_latency_s
        if compressed:
            starts, new_free = _serve_fifo(
                down_head, raw_ser.ravel(), float(free_rx[p])
            )
            free_rx[p] = new_free
            gathered = starts + raw_ser.ravel() + fabric.engine_latency_s
        else:
            gathered = down_done
        delivered_g = gathered.reshape(p, num_trains)[:, -1]

        # -- aggregator: ordered recv, sum, update ----------------------
        t_agg = max(agg_free, float(delivered_g[0]))
        for i in range(1, p):
            t_agg = max(t_agg, float(delivered_g[i])) + dt_sum
            sum_s += dt_sum
        if profile.update_s:
            update_s += profile.update_s
            t_agg += profile.update_s

        # -- scatter: aggregator -> workers (always raw) ----------------
        # All sends spawn at the same instant; the shared uplink grants
        # whole messages in destination order (the key order), exactly.
        num_trains = len(scatter_trains)
        ser_up = np.empty((p, num_trains))
        head_up = np.empty((p, num_trains))
        for t, (pkts, wire_b, _raw_b) in enumerate(scatter_trains):
            ser_up[:, t] = wire_b * 8.0 / fabric.bandwidth_bps
            head_up[:, t] = (
                np.minimum(wire_b, fabric.head_cap) * 8.0 / fabric.bandwidth_bps
            )
        starts, new_free = _serve_fifo(
            np.full(p * num_trains, t_agg), ser_up.ravel(), float(free_up[p])
        )
        free_up[p] = new_free
        enter_down = (
            (starts + head_up.ravel() + fabric.link_latency_s)
            + fabric.switch_delay_s
        ).reshape(p, num_trains)
        delivered_s = np.full(p, -np.inf)
        for t, (pkts, wire_b, _raw_b) in enumerate(scatter_trains):
            active = pkts > 0
            head_w = np.minimum(wire_b, fabric.head_cap)
            _, delivered, free_down[:p] = _traverse(
                enter_down[:, t],
                free_down[:p],
                wire_b,
                head_w,
                fabric.bandwidth_bps,
                fabric.link_latency_s,
                active,
            )
            delivered_s = np.maximum(
                delivered_s, np.where(active, delivered, -np.inf)
            )
        t_workers = delivered_s
        agg_free = float(delivered_s.max())

    sent = 2 * p * nbytes * iterations
    wire_sent = (int(wire_g.sum()) + p * nbytes) * iterations
    return ExchangeResult(
        algorithm="wa",
        num_workers=p,
        nbytes=nbytes,
        iterations=iterations,
        total_s=agg_free,
        gradient_sum_s=sum_s,
        update_s=update_s,
        sent_nbytes=sent,
        wire_payload_nbytes=wire_sent,
        trains_retransmitted=0,
    )


__all__ = [
    "FlowFabric",
    "simulate_ring_exchange_flow",
    "simulate_wa_exchange_flow",
    "split_trains",
    "stream_compresses",
    "wire_payload_nbytes",
]
