"""Flow-level evaluator of the exchange model (Sec. VIII-D).

The packet-granular pipeline is O(packets) in events and cannot reach
Fig-15-style sweeps at 1024-65536 nodes.  This module evaluates the
*same* exchange description in closed form, generalizing the paper's
per-hop ``alpha + nbytes / beta`` cost to every stage a train crosses.
A batch carries one numpy entry per *distinct* concurrent message: a
worker-aggregator leg one per worker, the ring one per run of
consecutive blocks whose whole state is equal (an evenly divided ring
is one run, stepped in floats) — O(steps x runs) of host time.

What is shared with the packet path by construction: message wire sizes
and the engine-dispatch decision (``build_wire_message`` through the
config's own NIC), train segmentation (``split_trains``), engine timing
(``ClusterConfig.nic_timing``) and the ring's block schedule
(``ring_step_blocks``, read here in the frame of the block a message
carries).  What is evaluated here instead of by the event
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
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import StreamProfile
from repro.distributed.node import block_sizes
from repro.network.packet import DEFAULT_MSS, HEADER_BYTES, split_trains
from repro.network.topology import DEFAULT_LINK_LATENCY_S, DEFAULT_SWITCH_DELAY_S
from repro.obs import PhaseLedger
from repro.transport.endpoint import ClusterConfig, TransferSummary
from repro.transport.wire import WireMessage, build_wire_message

if TYPE_CHECKING:
    from .exchange import Exchange, Measured

#: Where a batch of messages meets a resource class: an array (or a
#: slice, without the copy) gives every message its own entry, an
#: ``int`` one node's resource shared by the whole batch and served in
#: message order.
Nodes = Union[np.ndarray, slice, int]


@dataclass
class Stage:
    """One FIFO resource class on a train's path.

    The stage ``Network._stage_chain`` builds per train shape —
    (resource, bytes, their wire time, the head's, post-stage delay) —
    for a whole batch of messages: ``free`` holds the resource class's
    per-node free-at times and ``index`` says which of them each message
    occupies.
    """

    free: np.ndarray
    index: Nodes
    #: Engines carry the raw byte stream, links the wire bytes.
    engine: bool
    latency_s: float
    post_delay_s: float = 0.0


class Star:
    """The switched star's per-node FIFO resources and its stage chain."""

    def __init__(self, config: ClusterConfig, nodes: Optional[int] = None) -> None:
        nodes = config.num_nodes if nodes is None else nodes
        self.tx_engine = np.zeros(nodes)
        self.uplink = np.zeros(nodes)
        self.downlink = np.zeros(nodes)
        self.rx_engine = np.zeros(nodes)
        self.engine_latency_s = config.nic_timing().engine_latency_s

    def stages(self, src: Nodes, dst: Nodes, compressed: bool) -> List[Stage]:
        """tx engine -> uplink -> switch -> downlink -> rx engine.

        The one place the star's chain is spelled; an ``int`` end is
        where every message of the batch meets (the aggregator).
        """
        chain = [
            Stage(
                self.uplink, src, False, DEFAULT_LINK_LATENCY_S, DEFAULT_SWITCH_DELAY_S
            ),
            Stage(self.downlink, dst, False, DEFAULT_LINK_LATENCY_S),
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
        return Trains(self.times.take(index, axis=1), self.active.take(index, axis=0))


def sized_trains(
    config: ClusterConfig,
    sizes: Sequence[int],
    stream: Optional[StreamProfile] = None,
    ratio: Optional[float] = None,
) -> Tuple[List[WireMessage], Trains]:
    """Wire message and train table of each distinct message size.

    Sizes, engine dispatch and segmentation come from the packet path's
    own builders, once per distinct size (a ring has at most two block
    sizes, WA one per leg); the evaluators take rows of the tables
    instead of rebuilding them.
    """
    nic = config.build_nic(0)
    messages = [
        build_wire_message(0, 1, stream=stream, nbytes=size, nic=nic, ratio=ratio)
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
    head_cap = HEADER_BYTES + DEFAULT_MSS
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

    ``Link._grant`` + ``Link.request`` for a batch: each stage
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


def _deliver_floats(
    trains: Trains, stages: Sequence[Stage]
) -> Callable[[float, List[float]], float]:
    """:func:`deliver` of row 0 of ``trains`` as ``(t_send, free) -> landed``:
    its operations in its order on Python floats (``free``: one free-at per
    stage, updated in place); padding trains neither reserve nor land."""
    link, engine = trains.times[:, 0].reshape(2, 2, -1).transpose(0, 2, 1).tolist()
    chain = [
        [(*(engine if s.engine else link)[t], s.latency_s, s.post_delay_s)
         for s in stages]
        for t, active in enumerate(trains.active[0].tolist())
        if active
    ]
    def deliver_one(t_send: float, free: List[float]) -> float:
        landed = -np.inf
        for train in chain:
            enter = t_send
            for k, (ser, head, latency, post_delay) in enumerate(train):
                start = enter if enter > free[k] else free[k]
                free[k] = finish = start + ser
                enter = start + head + latency + post_delay
            landed = max(landed, finish + latency)
        return landed

    return deliver_one


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


def _shift_runs(
    first: np.ndarray, state: np.ndarray, n: int, class_start: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Hand every block the free-at times its ``j + 1`` neighbour left.

    ``state`` is ``(ready, free-at per stage) x run`` after a step and
    ``first`` each run's first block.  Inside a run the neighbour is the
    run itself; only a run's last block inherits from the next run
    (cyclically).  So the new state changes at ``first[r + 1]`` where
    ready time or size class do and at ``first[r + 1] - 1`` where a
    free-at time does — two neighbour-difference masks — and every
    other boundary coalesces.  Slot ``2r`` is run ``r``'s first block,
    slot ``2r + 1`` its last; a one-block run uses the even slot only.
    """
    differs = state != np.concatenate((state[:, 1:], state[:, :1]), axis=1)
    last = np.concatenate((first[1:], (n,))) - 1
    single = last == first
    inherits = differs[1:].any(axis=0)
    keep = np.empty((first.size, 2), dtype=bool)
    keep[0, 0] = True
    keep[1:, 0] = differs[0, :-1] | class_start[first[1:]]
    keep[:, 0] |= single & inherits
    np.greater(inherits, single, out=keep[:, 1])  # inherits and not single
    slot = np.flatnonzero(keep)
    run, is_last = slot >> 1, slot & 1
    neighbour = run + (is_last | single[run])
    if neighbour[-1] == first.size:
        neighbour[-1] = 0
    shifted = state.take(neighbour, axis=1)
    shifted[0] = state[0].take(run)
    return np.where(is_last, last.take(run), first.take(run)), shifted


def _turn_runs(
    first: np.ndarray, state: np.ndarray, n: int, class_start: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The runs of the next iteration: block ``j`` takes over ``j + 2``'s state.

    Step 1 sends block ``node`` again, two diagonals on from where step
    ``2n - 2`` left the frame; the size classes stay with their blocks.
    """
    starts = np.union1d((first - 2) % n, np.flatnonzero(class_start))
    source = np.searchsorted(first, (starts + 2) % n, side="right") - 1
    return starts, state[:, source]


def flow_ring_exchange(job: Exchange) -> Measured:
    """Ring iterations on the job's star, stepped on runs of equal blocks.

    Indexed by the block a message carries, ``j = (node - step + 1) mod
    n``: a block rides one diagonal, so a step hands block ``j`` its own
    delivery time and the free-at times block ``j + 1`` left on the same
    sender and receiver.  All nodes start equal, so that state is
    piecewise constant over runs of consecutive blocks: one block size is
    one run, stepped in Python floats; with two sizes ``deliver`` takes
    one entry per run, and runs merge only where their float state *is*
    equal (a 100 MB ring: 4 at 1 024 workers, up to 62 at 65 536).
    """
    n, profile = job.num_workers, job.profile
    block_bytes = [s * 4 for s in block_sizes(job.nbytes // 4, n)]
    sizes, size_of_block = np.unique(block_bytes, return_inverse=True)
    messages, trains = sized_trains(
        job.config, sizes.tolist(), job.config.profile, job.ratio
    )
    size_sum_s = np.array([profile.sum_time(b) for b in sizes.tolist()])
    class_start = size_of_block != np.roll(size_of_block, 1)
    class_start[0] = True

    # No per-node arrays (a 0-node star): entry k of a stage's ``free`` is
    # run k's, and ``free`` is rebound to a row of ``state`` when runs move.
    every = slice(None)
    stages = Star(job.config, 0).stages(every, every, messages[0].compressed)
    # Every block is sent by exactly one node per step.
    sends = np.bincount(size_of_block) * (2 * n - 2) * job.iterations
    summary = _summarize([(m, c, stages) for m, c in zip(messages, sends.tolist())])
    ledger = PhaseLedger()
    if sizes.size == 1:
        # Equal blocks, equal messages: shift and turn keep one run throughout.
        deliver_one, ready = _deliver_floats(trains, stages), 0.0
        free, sum_s = [0.0] * len(stages), float(size_sum_s[0])
        for _ in range(job.iterations):
            if profile.local_compute_s:
                ledger.add_local_compute(profile)
                ready += profile.local_compute_s
            for step in range(1, 2 * n - 1):
                ready = deliver_one(ready, free)
                if step < n:
                    ready += sum_s
                    ledger.add("gradient_sum", sum_s)
            ledger.add("update", profile.update_s)
            ready += profile.update_s
        return ready, ledger, summary
    first = np.flatnonzero(class_start)
    state = np.zeros((1 + len(stages), first.size))  # ready, free-at per stage

    for iteration in range(job.iterations):
        if iteration:
            first, state = _turn_runs(first, state, n, class_start)
        if profile.local_compute_s:
            ledger.add_local_compute(profile)
            state[0] = state[0] + profile.local_compute_s
        for step in range(1, 2 * n - 1):
            sizes_of_run = size_of_block.take(first)
            run_trains = trains.rows(sizes_of_run)
            run_sum_s = size_sum_s.take(sizes_of_run)
            for stage, free in zip(stages, state[1:]):
                stage.free = free
            state[0] = deliver(state[0], run_trains, stages)
            if step < n:
                state[0] = state[0] + run_sum_s
                # What node 0 sums: the block it received, ``-step mod n``.
                ledger.add("gradient_sum", float(size_sum_s[size_of_block[-step]]))
            first, state = _shift_runs(first, state, n, class_start)
        ledger.add("update", profile.update_s)
        state[0] = state[0] + profile.update_s

    return float(state[0].max()), ledger, summary


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
    (gradient,), trains = sized_trains(
        job.config, [job.nbytes], job.config.profile, job.ratio
    )
    gather_trains = trains.rows(every_worker)
    gather = star.stages(workers, aggregator, gradient.compressed)
    (weight,), trains = sized_trains(job.config, [job.nbytes])  # always raw
    scatter_trains = trains.rows(every_worker)
    scatter = star.stages(aggregator, workers, weight.compressed)

    t_workers = np.zeros(p)
    agg_free = 0.0
    ledger = PhaseLedger()
    dt_sum = profile.sum_time(job.nbytes)

    for _ in range(job.iterations):
        if profile.local_compute_s:
            ledger.add_local_compute(profile)
            t_workers = t_workers + profile.local_compute_s
        gathered = deliver(t_workers, gather_trains, gather)

        # Aggregator: ordered recv, sum every arrival after the first.
        t_agg = max(agg_free, float(gathered[0]))
        for i in range(1, p):
            t_agg = max(t_agg, float(gathered[i])) + dt_sum
            ledger.add("gradient_sum", dt_sum)
        ledger.add("update", profile.update_s)
        t_agg += profile.update_s

        # All scatter sends spawn at the same instant.
        t_workers = deliver(np.full(p, t_agg), scatter_trains, scatter)
        agg_free = float(t_workers.max())

    sends = p * job.iterations
    legs = [(gradient, sends, gather), (weight, sends, scatter)]
    return agg_free, ledger, _summarize(legs)
