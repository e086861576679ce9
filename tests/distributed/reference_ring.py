"""The copying ring exchange, kept verbatim as the test-side oracle.

This is ``repro.distributed.ring.ring_exchange`` as it stood before the
exchange reduced into one buffer in place: every block is its own
array, every P1 step allocates the block's new partial sum, every P2
step copies the received block, and the result is a concatenation.  No
block a node has sent is ever written again — which is what makes it a
reference: ``test_ring_oracle`` runs the same rings through both and
requires the same bits at every node and on every message.  Like the
production exchange it reads the gradient stream from the cluster.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

import numpy as np

from repro.distributed import ComputeProfile
from repro.distributed.node import block_sizes
from repro.distributed.ring import ring_step_blocks
from repro.network import Event
from repro.obs import CAT_RING
from repro.transport.endpoint import Endpoint


def partition_blocks(vector: np.ndarray, num_blocks: int) -> List[np.ndarray]:
    """Algorithm 1 line 8: split ``g`` evenly into N blocks.

    Contiguous splits with the :func:`block_sizes` layout (sizes differ
    by at most one).
    """
    flat = np.ascontiguousarray(vector, dtype=np.float32).reshape(-1)
    sizes = block_sizes(flat.size, num_blocks)
    offsets = np.cumsum(np.asarray(sizes[:-1], dtype=np.intp))
    return [
        np.array(b, dtype=np.float32, copy=True)
        for b in np.split(flat, offsets)
    ]


def concatenate_blocks(blocks: List[np.ndarray]) -> np.ndarray:
    """Inverse of :func:`partition_blocks`."""
    if not blocks:
        raise ValueError("no blocks to concatenate")
    return np.concatenate(blocks)


def ring_exchange(
    ep: Endpoint,
    vector: np.ndarray,
    num_workers: int,
    profile: Optional[ComputeProfile] = None,
) -> Generator[Event, Any, np.ndarray]:
    """Run Algorithm 1's gradient exchange for one node; returns the
    fully aggregated gradient vector.

    A generator to be driven as a simulation process — all ``num_workers``
    nodes must run it concurrently with consistent arguments.  Every hop
    rides the cluster's gradient stream (``None`` for raw).
    """
    n = num_workers
    i = ep.node_id
    if not 0 <= i < n:
        raise ValueError(f"node {i} outside the {n}-worker ring")
    if n == 1:
        return np.array(vector, dtype=np.float32, copy=True).reshape(-1)

    blocks: List[np.ndarray] = partition_blocks(vector, n)
    successor = (i + 1) % n
    predecessor = (i - 1) % n

    stream = ep.comm.config.profile
    tracer = ep.comm.tracer
    for step in range(1, 2 * n - 1):
        step_start = ep.comm.sim.now
        send_idx, recv_idx = ring_step_blocks(i, step, n)
        ep.isend(successor, blocks[send_idx], profile=stream)
        received = yield ep.recv(predecessor)
        if step < n:
            # P1: sum-reduce into the local block.
            if profile is not None:
                yield ep.comm.sim.timeout(profile.sum_time(received.nbytes))
            blocks[recv_idx] = (blocks[recv_idx] + received).astype(np.float32)
        else:
            # P2: propagate the fully aggregated block.
            blocks[recv_idx] = np.array(received, dtype=np.float32, copy=True)
        if tracer is not None:
            tracer.span(
                "ring.step",
                cat=CAT_RING,
                ts=step_start,
                dur=ep.comm.sim.now - step_start,
                node=ep.node_id,
                step=step,
                ring_phase="P1" if step < n else "P2",
                send_block=send_idx,
                recv_block=recv_idx,
            )

    return concatenate_blocks(blocks)
