"""Flow-level evaluator of the exchange model (Sec. VIII-D).

The packet-granular pipeline is O(packets) in events and cannot reach
Fig-15-style sweeps at 1024-65536 nodes.  This module evaluates the
*same* exchange description in closed form, generalizing the paper's
per-hop ``alpha + nbytes / beta`` cost to every stage a train crosses.
A batch carries one numpy entry per *distinct* concurrent message: a
worker-aggregator leg one per worker, the ring one per run of
consecutive blocks whose whole state is equal (an evenly divided ring
is one run, stepped in floats) — O(steps x runs) of host time.

A send is built as the packet path builds it (:class:`Star`): the
sending endpoint's ``WireMessage``, then the event kernel's trains and
stage chains, which give every stage time.  The ring's block schedule is
``ring_step_blocks``, read in the frame of the block a message carries.
Decided here: the per-node FIFO a stage occupies and how a batch is
served — cut-through chaining and FIFO reservation per resource, with
same-instant arrivals in message order (the kernel's arbitration-key
order).

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

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.core import StreamProfile
from repro.distributed.node import block_sizes
from repro.network import Link, Route
from repro.obs import PhaseLedger
from repro.transport.endpoint import ClusterComm, ClusterConfig, TransferSummary
from repro.transport.wire import SizedPayload, WireMessage

if TYPE_CHECKING:
    from repro.network.simulator import _Stage

    from .exchange import Exchange, Measured

#: Where a batch of messages meets a resource class: an array (or a
#: slice, without the copy) gives every message its own entry, an
#: ``int`` one node's resource shared by the whole batch and served in
#: message order.
Nodes = Union[np.ndarray, slice, int]


@dataclass
class Stage:
    """Stage ``k`` of a chain for a batch: a train holds it for its wire
    time (row ``k`` of :class:`Trains`), hands off after its head time,
    ``latency_s`` and ``post_delay_s``; ``free`` holds every node's
    free-at time and ``index`` which of them each message occupies."""

    free: np.ndarray
    index: Nodes
    latency_s: float
    post_delay_s: float = 0.0


class Trains(NamedTuple):
    """Per-message train tables: ``times`` is ``(stage, wire or head
    time, message, train)``, ``active`` ``(message, train)``; messages
    with fewer trains are padded with inactive zero-time entries."""

    times: np.ndarray
    active: np.ndarray

    def rows(self, index: np.ndarray) -> "Trains":
        """The tables of messages ``index`` (one row per entry)."""
        return Trains(self.times.take(index, axis=2), self.active.take(index, axis=0))


@dataclass
class Leg:
    """The distinct messages one leg of an exchange sends, with the
    event kernel's trains and stage chain (one for all its messages)."""

    messages: List[WireMessage]
    trains: Trains
    chain: List[_Stage]
    route: Route


class Star:
    """The job's switched star: a two-host star of its own config builds
    each distinct message as a send does (the sending endpoint's
    message, then ``Network.segments``); this adds one FIFO per node for
    each resource of a chain — the sender's up to the route's first
    link, the receiver's after it."""

    def __init__(self, config: ClusterConfig, nodes: Optional[int] = None) -> None:
        self.comm = ClusterComm(replace(config, num_nodes=2))
        self.nodes = config.num_nodes if nodes is None else nodes
        #: Every node's free-at time, per resource of the two-host star.
        self.free: Dict[Link, np.ndarray] = {}

    def leg(
        self,
        sizes: Sequence[int],
        stream: Optional[StreamProfile] = None,
        ratio: Optional[float] = None,
    ) -> Leg:
        """One message of each size, as node 0 sends it to node 1."""
        net, sender = self.comm.network, self.comm.endpoints[0]
        messages = [
            sender.build_message(1, SizedPayload(size, ratio), stream) for size in sizes
        ]
        route = net.topology.route(0, 1, tos=messages[0].tos)
        engines = (0, 1) if messages[0].compressed else (None, None)
        segments = [
            net.segments(route, msg.nbytes, msg.wire_payload_nbytes, *engines)
            for msg in messages
        ]
        counts = [[count for count, _, _ in runs] for runs in segments]
        trains = np.array([sum(count) for count in counts])
        chain = segments[0][0][2]
        table = np.zeros((len(messages), trains.max(), len(chain), 2))
        for row, (runs, count) in enumerate(zip(segments, counts)):
            times = [[stage[2:4] for stage in stages] for _, _, stages in runs]
            table[row, : trains[row]] = np.repeat(times, count, axis=0)
        active = np.arange(trains.max()) < trains[:, None]
        return Leg(messages, Trains(table.transpose(2, 3, 0, 1), active), chain, route)

    def stages(self, leg: Leg, src: Nodes, dst: Nodes) -> List[Stage]:
        """``leg``'s chain for messages from ``src`` to ``dst``; an
        ``int`` end is where every message of the batch meets (the
        aggregator)."""
        first_link = [stage[0] for stage in leg.chain].index(leg.route.links[0])
        return [
            Stage(
                self.free.setdefault(resource, np.zeros(self.nodes)),
                dst if k > first_link else src,
                resource.latency_s,
                delay_s,
            )
            for k, (resource, _, _, _, delay_s, *_) in enumerate(leg.chain)
        ]


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
    starts a train at ``max(arrival, free_at)``, hands it to the next
    stage after its head time plus latency and delay, and stays busy
    for its wire time; the last stage's hand-off is the landing.
    Stages update their ``free`` arrays in place.  Padding trains
    compute but never reserve.  A one-row ``trains`` serves every
    message of the batch.
    """
    active = trains.active
    shape = (t_send.size, active.shape[1])
    enter = np.repeat(t_send[:, None], shape[1], axis=1)
    for stage, (ser, head) in zip(stages, trains.times):
        if isinstance(stage.index, int):
            # Shared resource: whole messages in batch order.
            starts, stage.free[stage.index] = _serve_fifo(
                enter.ravel(),
                np.broadcast_to(ser, shape).ravel(),
                float(stage.free[stage.index]),
            )
            starts = starts.reshape(shape)
        else:
            free = stage.free[stage.index]
            starts = np.empty(shape)
            for t in range(shape[1]):
                starts[:, t] = np.maximum(enter[:, t], free)
                free = np.where(active[:, t], starts[:, t] + ser[:, t], free)
            stage.free[stage.index] = free
        enter = starts + head + stage.latency_s + stage.post_delay_s
    return np.where(active, enter, -np.inf).max(axis=1)


def _deliver_floats(
    trains: Trains, stages: Sequence[Stage]
) -> Callable[[float, List[float]], float]:
    """:func:`deliver` of row 0 of ``trains`` as ``(t_send, free) -> landed``:
    its operations in its order on Python floats (``free``: one free-at per
    stage, updated in place); padding trains neither reserve nor land."""
    times = trains.times[:, :, 0].transpose(2, 0, 1).tolist()
    chain = [
        [(*times[t][k], s.latency_s, s.post_delay_s) for k, s in enumerate(stages)]
        for t, active in enumerate(trains.active[0].tolist())
        if active
    ]
    def deliver_one(t_send: float, free: List[float]) -> float:
        landed = -np.inf
        for train in chain:
            enter = t_send
            for k, (ser, head, latency, post_delay) in enumerate(train):
                start = enter if enter > free[k] else free[k]
                free[k] = start + ser
                enter = start + head + latency + post_delay
            landed = max(landed, enter)
        return landed

    return deliver_one


def _summarize(legs: Sequence[Tuple[Leg, Sequence[int]]]) -> TransferSummary:
    """The transfer ledger over ``(leg, times each message is sent)``."""
    summary = TransferSummary()
    for leg, counts in legs:
        hops = len(leg.route.links)
        for msg, count in zip(leg.messages, counts):
            summary = summary.add(
                msg.nbytes, msg.wire_payload_nbytes, msg.compressed, hops, count
            )
    return summary


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
    n, compute = job.num_workers, job.compute
    block_bytes = [s * 4 for s in block_sizes(job.nbytes // 4, n)]
    sizes, size_of_block = np.unique(block_bytes, return_inverse=True)
    # No per-node arrays (a 0-node star): entry k of a stage's ``free`` is
    # run k's, and ``free`` is rebound to a row of ``state`` when runs move.
    star, every = Star(job.config, 0), slice(None)
    leg = star.leg(sizes.tolist(), job.config.profile, job.ratio)
    stages, trains = star.stages(leg, every, every), leg.trains
    size_sum_s = np.array([compute.sum_time(b) for b in sizes.tolist()])
    class_start = size_of_block != np.roll(size_of_block, 1)
    class_start[0] = True

    # Every block is sent by exactly one node per step.
    sends = np.bincount(size_of_block) * (2 * n - 2) * job.iterations
    summary = _summarize([(leg, sends.tolist())])
    ledger = PhaseLedger()
    if sizes.size == 1:
        # Equal blocks, equal messages: shift and turn keep one run throughout.
        deliver_one, ready = _deliver_floats(trains, stages), 0.0
        free, sum_s = [0.0] * len(stages), float(size_sum_s[0])
        for _ in range(job.iterations):
            if compute.local_compute_s:
                ledger.add_local_compute(compute)
                ready += compute.local_compute_s
            for step in range(1, 2 * n - 1):
                ready = deliver_one(ready, free)
                if step < n:
                    ready += sum_s
                    ledger.add("gradient_sum", sum_s)
            ledger.add("update", compute.update_s)
            ready += compute.update_s
        return ready, ledger, summary
    first = np.flatnonzero(class_start)
    state = np.zeros((1 + len(stages), first.size))  # ready, free-at per stage

    for iteration in range(job.iterations):
        if iteration:
            first, state = _turn_runs(first, state, n, class_start)
        if compute.local_compute_s:
            ledger.add_local_compute(compute)
            state[0] = state[0] + compute.local_compute_s
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
        ledger.add("update", compute.update_s)
        state[0] = state[0] + compute.update_s

    return float(state[0].max()), ledger, summary


def flow_wa_exchange(job: Exchange) -> Measured:
    """Worker-aggregator iterations on the job's star.

    Gather and scatter legs share the aggregator's downlink/uplink; the
    shared FIFOs serve in worker order (the arbitration-key order),
    matching the packet kernel exactly for single-train messages and
    whole-message FIFO for multi-train gathers.
    """
    p = aggregator = job.num_workers
    compute = job.compute
    workers = np.arange(p)
    star = Star(job.config)
    # One message size per leg: every worker's row is row 0.
    gradient = star.leg([job.nbytes], job.config.profile, job.ratio)
    gather = star.stages(gradient, workers, aggregator)
    weight = star.leg([job.nbytes])  # always raw
    scatter = star.stages(weight, aggregator, workers)

    t_workers = np.zeros(p)
    agg_free = 0.0
    ledger = PhaseLedger()
    dt_sum = compute.sum_time(job.nbytes)

    for _ in range(job.iterations):
        if compute.local_compute_s:
            ledger.add_local_compute(compute)
            t_workers = t_workers + compute.local_compute_s
        gathered = deliver(t_workers, gradient.trains, gather)

        # Aggregator: ordered recv, sum every arrival after the first.
        t_agg = max(agg_free, float(gathered[0]))
        for i in range(1, p):
            t_agg = max(t_agg, float(gathered[i])) + dt_sum
            ledger.add("gradient_sum", dt_sum)
        ledger.add("update", compute.update_s)
        t_agg += compute.update_s

        # All scatter sends spawn at the same instant.
        t_workers = deliver(np.full(p, t_agg), weight.trains, scatter)
        agg_free = float(t_workers.max())

    sends = [p * job.iterations]
    return agg_free, ledger, _summarize([(gradient, sends), (weight, sends)])
