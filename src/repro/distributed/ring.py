"""INCEPTIONN's gradient-centric, aggregator-free exchange (Algorithm 1).

Every node partitions its local gradient into N blocks and the group
performs a ring reduce-scatter (paper "P1", steps 1..N-1) followed by a
ring all-gather ("P2", steps N..2N-2).  Both legs carry *gradients*, so
when the endpoints' NICs have compression engines every hop is
compressed — the property the whole co-design exists to create.

One index arithmetic (:func:`ring_step_blocks`) covers both phases: at
step ``s`` node ``i`` sends block ``(i - s + 1) mod N`` and receives
block ``(i - s) mod N``, reducing during P1 and overwriting during P2.
(The paper's Fig 6 walkthrough fixes the intent of Algorithm 1's printed
indices, which are internally inconsistent by one step in the P2 loop.)

P2 only forwards blocks that are already fully reduced.  Step ``N``
compresses the node's own reduced block; steps ``N+1 .. 2N-2`` pass on
the message received at the step before (:meth:`Endpoint.forward`).
Under a codec advertising :data:`~repro.core.CAP_FIXED_POINT` that
reuses the received payload and values instead of running the codec
again on a reconstruction it would map to itself; the simulated NIC
still charges its engines on every hop, as the hardware compresses
every hop.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.network import Event
from repro.obs import CAT_RING
from repro.transport.endpoint import Endpoint
from repro.transport.wire import Payload, SizedPayload, WireMessage

from .node import partition_blocks

#: A node id, or an array of them (the flow evaluator steps every node
#: of the ring at once).
NodeIds = TypeVar("NodeIds", int, np.ndarray)


def ring_step_blocks(
    node: NodeIds, step: int, num_workers: int
) -> Tuple[NodeIds, NodeIds]:
    """``(send, recv)`` block indices of ``node`` at exchange step ``step``.

    Steps run ``1 .. 2N-2``; the exchange below (on arrays or sizes)
    and the flow evaluator in :mod:`repro.perfmodel.flowsim` read this.
    """
    return (node - step + 1) % num_workers, (node - step) % num_workers


def ring_exchange(
    ep: Endpoint,
    vector: Payload,
    members: Sequence[int],
) -> Generator[Event, Any, Payload]:
    """Run Algorithm 1's gradient exchange for one node; returns the
    fully aggregated gradient vector.

    A generator to be driven as a simulation process — every node of
    ``members`` (cluster node ids in ring order; ``ep`` is one of them)
    must run it concurrently with the same list.  Every hop
    rides the cluster's gradient stream (``ep.comm.config.profile``).
    Each P1 sum is spent at this node at the cluster's ``compute`` rate;
    cluster node 0 records its own.

    It reduces into one copy of ``vector``, returned at the end, and a
    raw send (forwards included) ships a view of it by reference: the
    block node ``i`` sends at step ``s`` is next written at step
    ``s + n - 1``, after ``i``'s receive of that step, which needs every
    other node — the consuming successor too — to have finished step
    ``s``.  A reused compressed forward ships the received codec output,
    which no node writes.

    A :class:`~repro.transport.wire.SizedPayload` runs the same schedule
    on sizes alone (:func:`repro.perfmodel.exchange.simulate_exchange`):
    the messages, sums and spans are the functional run's, and the
    returned aggregate is the input.
    """
    n = len(members)
    node = ep.node_id
    if node not in members:
        raise ValueError(f"node {node} outside the ring {list(members)}")
    i = members.index(node)
    aggregate = vector
    if not isinstance(vector, SizedPayload):
        aggregate = np.array(vector, dtype=np.float32).reshape(-1)
    if n == 1:
        return aggregate

    blocks = partition_blocks(aggregate, n)
    successor = members[(i + 1) % n]
    predecessor = members[(i - 1) % n]

    stream = ep.comm.config.profile
    compute = ep.comm.compute
    tracer = ep.comm.tracer
    # The P2 message received at the previous step: the next one sent.
    relay: Optional[WireMessage] = None
    for step in range(1, 2 * n - 1):
        step_start = ep.comm.sim.now
        send_idx, recv_idx = ring_step_blocks(i, step, n)
        if relay is None:
            ep.isend(successor, blocks[send_idx], profile=stream)
        else:
            ep.forward(successor, relay, blocks[send_idx], profile=stream)
        msg = yield ep.recv_message(predecessor)
        block = blocks[recv_idx]
        if step < n:
            # P1: sum-reduce into the local block.
            dt = compute.sum_time(msg.nbytes)
            yield from ep.comm.spend("gradient_sum", dt, node, node == 0)
            if not msg.size_only:
                np.add(block, msg.values, out=block)
        else:
            # P2: propagate the fully aggregated block.
            if not msg.size_only:
                block[...] = msg.values
            relay = msg
        if tracer is not None:
            tracer.span(
                "ring.step",
                cat=CAT_RING,
                ts=step_start,
                dur=ep.comm.sim.now - step_start,
                node=node,
                step=step,
                ring_phase="P1" if step < n else "P2",
                send_block=send_idx,
                recv_block=recv_idx,
            )

    return aggregate

